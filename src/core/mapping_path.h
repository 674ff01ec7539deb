// Relation paths and mapping paths (Definitions 3 and 4).
//
// A relation path is an undirected tree whose vertices are relation
// *occurrences* (the same relation may appear several times) and whose edges
// are foreign-key joins. A mapping path augments it with a projection map
// from target columns to attributes of path vertices; it is equivalent to a
// project-join schema mapping and can be rendered as SQL (query/sql.h) or
// executed (query/executor.h).
//
// Representation: a rooted tree (vertex 0 is the root; every other vertex
// stores its parent and the FK edge to it), which keeps weaving and
// canonical encoding simple. Logical identity is *unrooted*: Canonical()
// returns a rooting-independent encoding used for equality and dedup.
#ifndef MWEAVER_CORE_MAPPING_PATH_H_
#define MWEAVER_CORE_MAPPING_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/schema.h"

namespace mweaver::core {

/// Index of a vertex within a path.
using VertexId = int32_t;
inline constexpr VertexId kNoVertex = -1;

/// \brief One vertex of a relation path: a relation occurrence plus the FK
/// edge to its parent (root: parent == kNoVertex, fk == -1).
struct PathVertex {
  storage::RelationId relation = storage::kInvalidRelation;
  VertexId parent = kNoVertex;
  storage::ForeignKeyId fk_to_parent = -1;
  /// True iff this vertex is on the FK's referencing ("from") side of the
  /// join to its parent. Disambiguates self-referencing FKs.
  bool is_from_side = false;
};

/// \brief One projection map entry: target column j drawn from
/// `attribute` of path vertex `vertex` (pm(j) = attribute, Definition 4).
struct Projection {
  int target_column = -1;
  VertexId vertex = kNoVertex;
  storage::AttributeId attribute = storage::kInvalidAttribute;

  bool operator==(const Projection& other) const = default;
};

/// \brief A mapping path: relation path + projection map.
class MappingPath {
 public:
  MappingPath() = default;

  /// \brief Creates a single-vertex path over `relation`.
  static MappingPath SingleVertex(storage::RelationId relation);

  /// \brief Appends a vertex joined to `parent` via `fk`; `is_from_side`
  /// tells which side of the FK the new vertex occupies. Returns its id.
  VertexId AddVertex(storage::RelationId relation, VertexId parent,
                     storage::ForeignKeyId fk, bool is_from_side);

  /// \brief Adds pm(target_column) = vertex.attribute. A target column may
  /// appear at most once (checked).
  void AddProjection(int target_column, VertexId vertex,
                     storage::AttributeId attribute);

  const std::vector<PathVertex>& vertices() const { return vertices_; }
  const PathVertex& vertex(VertexId v) const {
    return vertices_[static_cast<size_t>(v)];
  }
  size_t num_vertices() const { return vertices_.size(); }

  /// Projections sorted by target column.
  const std::vector<Projection>& projections() const { return projections_; }
  /// \brief The projection for `target_column`, or nullptr.
  const Projection* FindProjection(int target_column) const;
  /// \brief Sorted target columns covered by this path (the set N).
  std::vector<int> TargetColumns() const;

  /// \brief Size of the mapping path = |N| (Definition 4 discussion).
  size_t size() const { return projections_.size(); }
  /// \brief Number of joins (edges) in the relation path.
  size_t num_joins() const { return vertices_.empty() ? 0
                                                      : vertices_.size() - 1; }

  /// \brief Children of `v` in the rooted representation.
  std::vector<VertexId> Children(VertexId v) const;
  /// \brief Degree of `v` in the unrooted tree.
  size_t Degree(VertexId v) const;
  /// \brief True iff every degree-1 vertex carries at least one projection
  /// (the terminal-vertex condition of Definition 4). A single-vertex path
  /// requires that vertex to be projected.
  bool TerminalsProjected() const;

  /// \brief Rooting-independent encoding; equal encodings iff the unrooted
  /// labeled trees (with projections) are isomorphic.
  std::string Canonical() const;

  /// \brief Equal iff the Canonical() forms are equal (compared through
  /// the integer keys of core/canonical_key.h, without building strings).
  bool operator==(const MappingPath& other) const;

  /// \brief Human-readable description, e.g.
  /// "movie[1:title]-(direct)-person[2:name]".
  std::string ToString(const storage::Database& db) const;

 private:
  std::vector<PathVertex> vertices_;
  std::vector<Projection> projections_;
};

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_MAPPING_PATH_H_
