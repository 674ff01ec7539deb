// Tuple paths (Definition 5) and the Weave operation (Algorithm 6).
//
// A tuple path instantiates a mapping path: every vertex additionally holds
// the id of a concrete tuple of its relation, and adjacent tuples are
// connected by the edge's foreign key in the source instance. Weaving merges
// a pairwise tuple path onto a base tuple path at their (single) common
// projection key, fusing vertices whose (relation occurrence, tuple, edge)
// agree and grafting the unmergeable suffix as a new branch — producing a
// tuple path of size |base| + 1.
#ifndef MWEAVER_CORE_TUPLE_PATH_H_
#define MWEAVER_CORE_TUPLE_PATH_H_

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/mapping_path.h"
#include "core/path_internal.h"
#include "storage/database.h"

namespace mweaver::core {

/// \brief An instantiated mapping path (Definition 5).
///
/// Shares the rooted-tree representation of MappingPath, with a parallel
/// array of tuple (row) ids, plus per-projection match scores against the
/// user's samples (filled in by the executor, consumed by ranking).
///
/// Storage is allocator-aware (std::pmr): the weave stage constructs its
/// millions of short-lived paths on the ExecutionContext's bump-pointer
/// arena, while the default constructor uses the heap. Plain copies always
/// land on the heap (std::pmr copy semantics), which is exactly the
/// "detach" the ranking stage needs when retaining example paths beyond
/// the arena's lifetime; moves keep the source's resource.
///
/// Vertex storage is structure-of-arrays: one parallel pmr vector per
/// PathVertex field (relation, parent, fk, orientation) plus the row ids.
/// Pruning and canonicalization scans touch one field across all vertices,
/// so SoA streams a single contiguous (and arena-packed) lane instead of
/// striding over interleaved structs. `vertex(v)` materializes a PathVertex
/// by value for callers that want the struct view.
class TuplePath {
 public:
  TuplePath() = default;
  /// \brief An empty path whose node storage draws from `mr`.
  explicit TuplePath(std::pmr::memory_resource* mr)
      : relations_(mr),
        parents_(mr),
        fks_(mr),
        from_side_(mr),
        rows_(mr),
        projections_(mr),
        match_scores_(mr) {}
  /// \brief Copy of `other` with node storage on `mr` (arena cloning).
  TuplePath(const TuplePath& other, std::pmr::memory_resource* mr)
      : relations_(other.relations_, mr),
        parents_(other.parents_, mr),
        fks_(other.fks_, mr),
        from_side_(other.from_side_, mr),
        rows_(other.rows_, mr),
        projections_(other.projections_, mr),
        match_scores_(other.match_scores_, mr) {}
  TuplePath(const TuplePath&) = default;
  TuplePath(TuplePath&&) = default;
  TuplePath& operator=(const TuplePath&) = default;
  TuplePath& operator=(TuplePath&&) = default;

  /// \brief Single-vertex path over (relation, row), allocated from `mr`
  /// (nullptr = heap).
  static TuplePath SingleVertex(storage::RelationId relation,
                                storage::RowId row,
                                std::pmr::memory_resource* mr = nullptr);

  VertexId AddVertex(storage::RelationId relation, storage::RowId row,
                     VertexId parent, storage::ForeignKeyId fk,
                     bool is_from_side);

  void AddProjection(int target_column, VertexId vertex,
                     storage::AttributeId attribute, double match_score);

  /// \brief Struct view of vertex `v`, assembled from the SoA lanes.
  PathVertex vertex(VertexId v) const {
    const size_t i = static_cast<size_t>(v);
    return PathVertex{relations_[i], parents_[i], fks_[i],
                      from_side_[i] != 0};
  }
  // SoA lane views (parallel arrays, one entry per vertex).
  std::span<const storage::RelationId> relations() const {
    return {relations_.data(), relations_.size()};
  }
  std::span<const VertexId> parents() const {
    return {parents_.data(), parents_.size()};
  }
  std::span<const storage::ForeignKeyId> fks() const {
    return {fks_.data(), fks_.size()};
  }
  std::span<const unsigned char> from_sides() const {
    return {from_side_.data(), from_side_.size()};
  }
  storage::RowId row(VertexId v) const {
    return rows_[static_cast<size_t>(v)];
  }
  size_t num_vertices() const { return relations_.size(); }
  size_t num_joins() const {
    return relations_.empty() ? 0 : relations_.size() - 1;
  }

  const std::pmr::vector<Projection>& projections() const {
    return projections_;
  }
  const Projection* FindProjection(int target_column) const;
  std::vector<int> TargetColumns() const;
  size_t size() const { return projections_.size(); }

  /// \brief Mean match score across this path's projections (1.0 when no
  /// projection carries a score).
  double MeanMatchScore() const;
  double match_score(size_t projection_index) const {
    return match_scores_[projection_index];
  }

  /// \brief The schema-level mapping path this tuple path instantiates
  /// (drops tuple ids and scores).
  MappingPath ExtractMappingPath() const;

  /// \brief The projected target tuple t_p (Definition 7): display strings
  /// per covered target column, ordered by target column.
  std::vector<std::string> ProjectTargetValues(
      const storage::Database& db) const;

  /// \brief Rooting-independent encoding over (relation, row, fk,
  /// orientation, projections); used for duplicate elimination in Alg 5.
  std::string Canonical() const;

  /// \brief Instance-consistency check (the invariant behind Theorem 1):
  /// every edge's FK join condition holds between the assigned tuples, all
  /// row ids are in range, and no two same-FK/orientation neighbors of a
  /// vertex share a tuple (the weave normal form). Used by tests and
  /// debug assertions.
  bool IsConsistent(const storage::Database& db) const;

  /// \brief Equal iff the Canonical() forms are equal (compared through
  /// the integer keys of core/canonical_key.h, without building strings).
  bool operator==(const TuplePath& other) const;

  /// \brief Weaves pairwise path `ptp` onto `base` (Algorithm 6).
  ///
  /// Requires: ptp.size() == 2 and the projection-key sets intersect in
  /// exactly one column. Returns nullopt when the fuse vertices disagree on
  /// (relation, tuple). On success the result has size base.size() + 1 and
  /// its node storage draws from `mr` (nullptr = heap). Weaving many paths
  /// onto one base goes through WeaveScratch instead.
  static std::optional<TuplePath> Weave(const TuplePath& base,
                                        const TuplePath& ptp,
                                        std::pmr::memory_resource* mr =
                                            nullptr);

  std::string ToString(const storage::Database& db) const;

 private:
  // Vertex SoA lanes; all five vectors stay the same length.
  std::pmr::vector<storage::RelationId> relations_;
  std::pmr::vector<VertexId> parents_;
  std::pmr::vector<storage::ForeignKeyId> fks_;
  std::pmr::vector<unsigned char> from_side_;  // bool, packed
  std::pmr::vector<storage::RowId> rows_;
  std::pmr::vector<Projection> projections_;  // sorted by target column
  std::pmr::vector<double> match_scores_;     // parallel to projections_
};

/// \brief Reusable state for weaving many pairwise paths onto one base: the
/// base's adjacency (CSR) and covered-column mask are built once per base,
/// and the per-attempt buffers keep their capacity, so a weave attempt
/// allocates only the woven path itself (on `mr`).
class WeaveScratch {
 public:
  /// \brief Prepares to weave onto `base`, which must outlive the Weave
  /// calls that follow.
  void Reset(const TuplePath& base);

  /// \brief True iff the base projects target column `column`.
  bool Covers(int column) const {
    return static_cast<unsigned>(column) < 64
               ? ((columns_ >> column) & 1) != 0
               : base_->FindProjection(column) != nullptr;
  }

  /// \brief TuplePath::Weave(base, ptp, mr) for the base given to Reset().
  std::optional<TuplePath> Weave(const TuplePath& ptp,
                                 std::pmr::memory_resource* mr);

 private:
  // Fills chain_ with the ptp vertices from `from` to `to` inclusive,
  // walking parent pointers up to their lowest common ancestor.
  void WalkChain(const TuplePath& ptp, VertexId from, VertexId to);

  const TuplePath* base_ = nullptr;
  uint64_t columns_ = 0;  // bit c: the base projects column c (c < 64)
  std::vector<int32_t> offsets_;
  std::vector<internal::AdjEdge> edges_;
  std::vector<unsigned char> visited_;
  std::vector<VertexId> chain_;
  std::vector<VertexId> tail_;
  std::vector<unsigned char> on_chain_;
};

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_TUPLE_PATH_H_
