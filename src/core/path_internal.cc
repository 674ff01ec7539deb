#include "core/path_internal.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "common/string_util.h"

namespace mweaver::core::internal {

std::vector<std::vector<AdjEdge>> BuildAdjacency(
    std::span<const PathVertex> vertices) {
  std::vector<std::vector<AdjEdge>> adj(vertices.size());
  for (size_t i = 0; i < vertices.size(); ++i) {
    const PathVertex& v = vertices[i];
    if (v.parent == kNoVertex) continue;
    const VertexId child = static_cast<VertexId>(i);
    adj[static_cast<size_t>(v.parent)].push_back(
        AdjEdge{child, v.fk_to_parent, v.is_from_side});
    adj[static_cast<size_t>(child)].push_back(
        AdjEdge{v.parent, v.fk_to_parent, !v.is_from_side});
  }
  return adj;
}

std::vector<std::vector<AdjEdge>> BuildAdjacency(
    std::span<const VertexId> parents,
    std::span<const storage::ForeignKeyId> fks,
    std::span<const unsigned char> from_side) {
  std::vector<std::vector<AdjEdge>> adj(parents.size());
  for (size_t i = 0; i < parents.size(); ++i) {
    const VertexId parent = parents[i];
    if (parent == kNoVertex) continue;
    const VertexId child = static_cast<VertexId>(i);
    adj[static_cast<size_t>(parent)].push_back(
        AdjEdge{child, fks[i], from_side[i] != 0});
    adj[static_cast<size_t>(child)].push_back(
        AdjEdge{parent, fks[i], from_side[i] == 0});
  }
  return adj;
}

namespace {

// Fills the CSR arrays from (parent, fk, from_side) accessors, visiting
// vertices in index order exactly like BuildAdjacency so neighbor order
// matches.
template <typename Parent, typename Fk, typename FromSide>
void FillCsr(size_t n, Parent parent_of, Fk fk_of, FromSide from_of,
             std::vector<int32_t>* offsets, std::vector<AdjEdge>* edges) {
  offsets->assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const VertexId parent = parent_of(i);
    if (parent == kNoVertex) continue;
    ++(*offsets)[static_cast<size_t>(parent) + 1];
    ++(*offsets)[i + 1];
  }
  for (size_t i = 0; i < n; ++i) (*offsets)[i + 1] += (*offsets)[i];
  edges->resize(static_cast<size_t>((*offsets)[n]));
  // Reuse offsets[v] as v's write cursor, then shift back.
  for (size_t i = 0; i < n; ++i) {
    const VertexId parent = parent_of(i);
    if (parent == kNoVertex) continue;
    const bool from = from_of(i);
    (*edges)[static_cast<size_t>((*offsets)[static_cast<size_t>(parent)]++)] =
        AdjEdge{static_cast<VertexId>(i), fk_of(i), from};
    (*edges)[static_cast<size_t>((*offsets)[i]++)] =
        AdjEdge{parent, fk_of(i), !from};
  }
  for (size_t i = n; i > 0; --i) (*offsets)[i] = (*offsets)[i - 1];
  (*offsets)[0] = 0;
}

}  // namespace

void BuildCsrAdjacency(std::span<const VertexId> parents,
                       std::span<const storage::ForeignKeyId> fks,
                       std::span<const unsigned char> from_side,
                       std::vector<int32_t>* offsets,
                       std::vector<AdjEdge>* edges) {
  FillCsr(
      parents.size(), [&](size_t i) { return parents[i]; },
      [&](size_t i) { return fks[i]; },
      [&](size_t i) { return from_side[i] != 0; }, offsets, edges);
}

void BuildCsrAdjacency(std::span<const PathVertex> vertices,
                       std::vector<int32_t>* offsets,
                       std::vector<AdjEdge>* edges) {
  FillCsr(
      vertices.size(), [&](size_t i) { return vertices[i].parent; },
      [&](size_t i) { return vertices[i].fk_to_parent; },
      [&](size_t i) { return vertices[i].is_from_side; }, offsets, edges);
}

namespace {

// AHU-style encoding of the subtree of `v` entered from `parent` (kNoVertex
// for the whole tree).
std::string EncodeFrom(const std::vector<std::vector<AdjEdge>>& adj,
                       const std::vector<std::string>& labels, VertexId v,
                       VertexId parent) {
  std::vector<std::string> child_encodings;
  bool skipped_parent = false;
  for (const AdjEdge& e : adj[static_cast<size_t>(v)]) {
    // Skip exactly one traversal edge back to the parent; further edges to
    // the same vertex id cannot occur in a tree.
    if (e.neighbor == parent && !skipped_parent) {
      skipped_parent = true;
      continue;
    }
    std::string edge = "-f" + std::to_string(e.fk) +
                       (e.neighbor_is_from_side ? ">" : "<");
    child_encodings.push_back(edge + EncodeFrom(adj, labels, e.neighbor, v));
  }
  std::sort(child_encodings.begin(), child_encodings.end());
  std::string out = labels[static_cast<size_t>(v)];
  if (!child_encodings.empty()) {
    out += "(" + Join(child_encodings, "|") + ")";
  }
  return out;
}

std::string BestRooting(const std::vector<std::vector<AdjEdge>>& adj,
                        const std::vector<std::string>& labels) {
  std::string best;
  for (size_t i = 0; i < adj.size(); ++i) {
    std::string enc =
        EncodeFrom(adj, labels, static_cast<VertexId>(i), kNoVertex);
    if (best.empty() || enc < best) best = std::move(enc);
  }
  return best;
}

}  // namespace

std::string CanonicalEncoding(std::span<const PathVertex> vertices,
                              const std::vector<std::string>& labels) {
  if (vertices.empty()) return "";
  return BestRooting(BuildAdjacency(vertices), labels);
}

std::string CanonicalEncoding(std::span<const VertexId> parents,
                              std::span<const storage::ForeignKeyId> fks,
                              std::span<const unsigned char> from_side,
                              const std::vector<std::string>& labels) {
  if (parents.empty()) return "";
  return BestRooting(BuildAdjacency(parents, fks, from_side), labels);
}

std::vector<VertexId> SimplePath(const std::vector<std::vector<AdjEdge>>& adj,
                                 VertexId from, VertexId to) {
  std::vector<VertexId> path;
  std::function<bool(VertexId, VertexId)> dfs = [&](VertexId v,
                                                    VertexId parent) {
    path.push_back(v);
    if (v == to) return true;
    for (const AdjEdge& e : adj[static_cast<size_t>(v)]) {
      if (e.neighbor == parent) continue;
      if (dfs(e.neighbor, v)) return true;
    }
    path.pop_back();
    return false;
  };
  const bool found = dfs(from, kNoVertex);
  MW_CHECK(found) << "vertices " << from << " and " << to
                  << " are not connected";
  return path;
}

}  // namespace mweaver::core::internal
