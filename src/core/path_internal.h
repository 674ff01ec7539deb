// Implementation helpers shared by MappingPath and TuplePath: undirected
// adjacency over the rooted representation and rooting-independent tree
// encoding. Internal to mweaver_core; not part of the public API.
#ifndef MWEAVER_CORE_PATH_INTERNAL_H_
#define MWEAVER_CORE_PATH_INTERNAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/mapping_path.h"

namespace mweaver::core::internal {

/// One undirected adjacency entry derived from the rooted tree.
struct AdjEdge {
  VertexId neighbor;
  storage::ForeignKeyId fk;
  /// Whether `neighbor` occupies the FK's referencing ("from") side.
  bool neighbor_is_from_side;
};

/// \brief Undirected adjacency lists of a rooted path-vertex array. Spans
/// so std::vector (MappingPath) storage works.
std::vector<std::vector<AdjEdge>> BuildAdjacency(
    std::span<const PathVertex> vertices);

/// \brief SoA overload over TuplePath's parallel vertex lanes (parent, fk,
/// orientation); identical output to the AoS overload.
std::vector<std::vector<AdjEdge>> BuildAdjacency(
    std::span<const VertexId> parents,
    std::span<const storage::ForeignKeyId> fks,
    std::span<const unsigned char> from_side);

/// \brief Compressed (CSR) form of BuildAdjacency into reusable buffers:
/// the neighbors of `v` are (*edges)[(*offsets)[v] .. (*offsets)[v + 1]),
/// in the same order BuildAdjacency lists them.
void BuildCsrAdjacency(std::span<const VertexId> parents,
                       std::span<const storage::ForeignKeyId> fks,
                       std::span<const unsigned char> from_side,
                       std::vector<int32_t>* offsets,
                       std::vector<AdjEdge>* edges);

/// \brief AoS overload of BuildCsrAdjacency (MappingPath storage).
void BuildCsrAdjacency(std::span<const PathVertex> vertices,
                       std::vector<int32_t>* offsets,
                       std::vector<AdjEdge>* edges);

/// \brief Minimum over all rootings of the tree's AHU-style string
/// encoding, given one label per vertex: canonical form of the unrooted
/// labeled tree.
std::string CanonicalEncoding(std::span<const PathVertex> vertices,
                              const std::vector<std::string>& labels);

/// \brief SoA overload of CanonicalEncoding (see BuildAdjacency).
std::string CanonicalEncoding(std::span<const VertexId> parents,
                              std::span<const storage::ForeignKeyId> fks,
                              std::span<const unsigned char> from_side,
                              const std::vector<std::string>& labels);

/// \brief Vertices on the unique simple path from `from` to `to` inclusive.
std::vector<VertexId> SimplePath(const std::vector<std::vector<AdjEdge>>& adj,
                                 VertexId from, VertexId to);

}  // namespace mweaver::core::internal

#endif  // MWEAVER_CORE_PATH_INTERNAL_H_
