#include "core/tuple_path.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/path_internal.h"

namespace mweaver::core {

using internal::AdjEdge;
using internal::BuildAdjacency;
using internal::CanonicalEncoding;

TuplePath TuplePath::SingleVertex(storage::RelationId relation,
                                  storage::RowId row,
                                  std::pmr::memory_resource* mr) {
  TuplePath path(mr != nullptr ? mr : std::pmr::get_default_resource());
  path.relations_.push_back(relation);
  path.parents_.push_back(kNoVertex);
  path.fks_.push_back(-1);
  path.from_side_.push_back(0);
  path.rows_.push_back(row);
  return path;
}

VertexId TuplePath::AddVertex(storage::RelationId relation, storage::RowId row,
                              VertexId parent, storage::ForeignKeyId fk,
                              bool is_from_side) {
  MW_CHECK_GE(parent, 0);
  MW_CHECK_LT(static_cast<size_t>(parent), relations_.size());
  relations_.push_back(relation);
  parents_.push_back(parent);
  fks_.push_back(fk);
  from_side_.push_back(is_from_side ? 1 : 0);
  rows_.push_back(row);
  return static_cast<VertexId>(relations_.size() - 1);
}

void TuplePath::AddProjection(int target_column, VertexId vertex,
                              storage::AttributeId attribute,
                              double match_score) {
  MW_CHECK(FindProjection(target_column) == nullptr)
      << "duplicate projection for target column " << target_column;
  MW_CHECK_GE(vertex, 0);
  MW_CHECK_LT(static_cast<size_t>(vertex), relations_.size());
  // Insert keeping (projections_, match_scores_) sorted by target column.
  size_t pos = 0;
  while (pos < projections_.size() &&
         projections_[pos].target_column < target_column) {
    ++pos;
  }
  projections_.insert(projections_.begin() + static_cast<ptrdiff_t>(pos),
                      Projection{target_column, vertex, attribute});
  match_scores_.insert(match_scores_.begin() + static_cast<ptrdiff_t>(pos),
                       match_score);
}

const Projection* TuplePath::FindProjection(int target_column) const {
  for (const Projection& p : projections_) {
    if (p.target_column == target_column) return &p;
  }
  return nullptr;
}

std::vector<int> TuplePath::TargetColumns() const {
  std::vector<int> cols;
  cols.reserve(projections_.size());
  for (const Projection& p : projections_) cols.push_back(p.target_column);
  return cols;
}

double TuplePath::MeanMatchScore() const {
  if (match_scores_.empty()) return 1.0;
  double total = 0.0;
  for (double s : match_scores_) total += s;
  return total / static_cast<double>(match_scores_.size());
}

MappingPath TuplePath::ExtractMappingPath() const {
  MappingPath mp;
  if (relations_.empty()) return mp;
  mp = MappingPath::SingleVertex(relations_[0]);
  for (size_t i = 1; i < relations_.size(); ++i) {
    mp.AddVertex(relations_[i], parents_[i], fks_[i], from_side_[i] != 0);
  }
  for (const Projection& p : projections_) {
    mp.AddProjection(p.target_column, p.vertex, p.attribute);
  }
  return mp;
}

std::vector<std::string> TuplePath::ProjectTargetValues(
    const storage::Database& db) const {
  std::vector<std::string> values;
  values.reserve(projections_.size());
  for (const Projection& p : projections_) {
    const storage::Relation& rel =
        db.relation(relations_[static_cast<size_t>(p.vertex)]);
    values.push_back(
        rel.at(rows_[static_cast<size_t>(p.vertex)], p.attribute)
            .ToDisplayString());
  }
  return values;
}

std::string TuplePath::Canonical() const {
  std::vector<std::string> labels(relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    std::string label = "R" + std::to_string(relations_[i]) + "#" +
                        std::to_string(rows_[i]);
    std::vector<std::string> projs;
    for (const Projection& p : projections_) {
      if (p.vertex == static_cast<VertexId>(i)) {
        projs.push_back(std::to_string(p.target_column) + ":" +
                        std::to_string(p.attribute));
      }
    }
    std::sort(projs.begin(), projs.end());
    if (!projs.empty()) label += "[" + Join(projs, ",") + "]";
    labels[i] = std::move(label);
  }
  return CanonicalEncoding({parents_.data(), parents_.size()},
                           {fks_.data(), fks_.size()},
                           {from_side_.data(), from_side_.size()}, labels);
}

bool TuplePath::IsConsistent(const storage::Database& db) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i] < 0 ||
        static_cast<size_t>(relations_[i]) >= db.num_relations()) {
      return false;
    }
    const storage::Relation& rel = db.relation(relations_[i]);
    if (rows_[i] < 0 || static_cast<size_t>(rows_[i]) >= rel.num_rows()) {
      return false;
    }
    if (parents_[i] == kNoVertex) continue;
    // Join condition between this vertex and its parent.
    const bool is_from = from_side_[i] != 0;
    const storage::ForeignKey& fk =
        db.foreign_keys()[static_cast<size_t>(fks_[i])];
    const storage::AttributeId my_attr =
        is_from ? fk.from_attribute : fk.to_attribute;
    const storage::AttributeId parent_attr =
        is_from ? fk.to_attribute : fk.from_attribute;
    const size_t parent = static_cast<size_t>(parents_[i]);
    const storage::Value& mine = rel.at(rows_[i], my_attr);
    const storage::Value& theirs =
        db.relation(relations_[parent]).at(rows_[parent], parent_attr);
    if (mine.is_null() || mine != theirs) return false;
  }
  // Normal form: no two same-(fk, orientation) neighbors of a vertex hold
  // the same tuple.
  const auto adj = BuildAdjacency(parents(), fks(), from_sides());
  for (size_t u = 0; u < adj.size(); ++u) {
    const auto& edges = adj[u];
    for (size_t a = 0; a < edges.size(); ++a) {
      for (size_t b = a + 1; b < edges.size(); ++b) {
        if (edges[a].fk == edges[b].fk &&
            edges[a].neighbor_is_from_side == edges[b].neighbor_is_from_side &&
            relations_[static_cast<size_t>(edges[a].neighbor)] ==
                relations_[static_cast<size_t>(edges[b].neighbor)] &&
            row(edges[a].neighbor) == row(edges[b].neighbor)) {
          return false;
        }
      }
    }
  }
  return true;
}

std::optional<TuplePath> TuplePath::Weave(const TuplePath& base,
                                          const TuplePath& ptp,
                                          std::pmr::memory_resource* mr) {
  WeaveScratch scratch;
  scratch.Reset(base);
  return scratch.Weave(ptp, mr);
}

void WeaveScratch::Reset(const TuplePath& base) {
  base_ = &base;
  columns_ = 0;
  for (const Projection& p : base.projections()) {
    if (static_cast<unsigned>(p.target_column) < 64) {
      columns_ |= uint64_t{1} << p.target_column;
    }
  }
  internal::BuildCsrAdjacency(base.parents(), base.fks(), base.from_sides(),
                              &offsets_, &edges_);
}

void WeaveScratch::WalkChain(const TuplePath& ptp, VertexId from,
                             VertexId to) {
  const std::span<const VertexId> parents = ptp.parents();
  on_chain_.assign(ptp.num_vertices(), 0);
  chain_.clear();
  for (VertexId v = from; v != kNoVertex; v = parents[static_cast<size_t>(v)]) {
    chain_.push_back(v);
    on_chain_[static_cast<size_t>(v)] = 1;
  }
  // Climb from `to` to the first vertex on from's root path: the lowest
  // common ancestor. Cut `from`'s part there and append the descent.
  tail_.clear();
  VertexId v = to;
  while (on_chain_[static_cast<size_t>(v)] == 0) {
    tail_.push_back(v);
    v = parents[static_cast<size_t>(v)];
    MW_CHECK_NE(v, kNoVertex) << "vertices " << from << " and " << to
                              << " are not connected";
  }
  chain_.resize(static_cast<size_t>(
      std::find(chain_.begin(), chain_.end(), v) - chain_.begin() + 1));
  chain_.insert(chain_.end(), tail_.rbegin(), tail_.rend());
}

std::optional<TuplePath> WeaveScratch::Weave(const TuplePath& ptp,
                                             std::pmr::memory_resource* mr) {
  MW_CHECK_EQ(ptp.size(), 2u);
  const TuplePath& base = *base_;
  // Identify the common key k and the new key j.
  const Projection* ptp_common = nullptr;
  const Projection* ptp_new = nullptr;
  for (const Projection& p : ptp.projections()) {
    if (Covers(p.target_column)) {
      MW_CHECK(ptp_common == nullptr)
          << "weave requires exactly one common projection key";
      ptp_common = &p;
    } else {
      ptp_new = &p;
    }
  }
  MW_CHECK(ptp_common != nullptr);
  MW_CHECK(ptp_new != nullptr);

  const VertexId fuse_base =
      base.FindProjection(ptp_common->target_column)->vertex;
  const VertexId fuse_ptp = ptp_common->vertex;

  // Line 4 of Algorithm 6: the fused vertices must be the same tuple.
  if (base.relations()[static_cast<size_t>(fuse_base)] !=
          ptp.relations()[static_cast<size_t>(fuse_ptp)] ||
      base.row(fuse_base) != ptp.row(fuse_ptp)) {
    return std::nullopt;
  }

  TuplePath result(base, mr != nullptr ? mr : std::pmr::get_default_resource());
  // The chain of ptp vertices from the fuse point to the new projection.
  WalkChain(ptp, fuse_ptp, ptp_new->vertex);

  visited_.assign(base.num_vertices(), 0);
  visited_[static_cast<size_t>(fuse_base)] = 1;

  const std::span<const VertexId> ptp_parents = ptp.parents();
  VertexId cur = fuse_base;  // current merge position in `result`
  bool grafting = false;
  for (size_t step = 1; step < chain_.size(); ++step) {
    const VertexId prev = chain_[step - 1];
    const VertexId pv = chain_[step];
    // Edge metadata between prev and pv, from pv's perspective: stepping
    // up uses prev's edge to its parent, stepping down pv's.
    const bool up = ptp_parents[static_cast<size_t>(prev)] == pv;
    const size_t edge_owner = static_cast<size_t>(up ? prev : pv);
    const storage::ForeignKeyId fk = ptp.fks()[edge_owner];
    const bool pv_is_from = (ptp.from_sides()[edge_owner] != 0) != up;
    const storage::RelationId relation =
        ptp.relations()[static_cast<size_t>(pv)];
    const storage::RowId row = ptp.row(pv);

    if (!grafting) {
      // Merge onto an unvisited base neighbor of `cur` matching (relation,
      // row, fk, orientation), if any.
      VertexId merged = kNoVertex;
      const size_t first =
          static_cast<size_t>(offsets_[static_cast<size_t>(cur)]);
      const size_t last =
          static_cast<size_t>(offsets_[static_cast<size_t>(cur) + 1]);
      for (size_t k = first; k < last; ++k) {
        const AdjEdge& e = edges_[k];
        if (visited_[static_cast<size_t>(e.neighbor)] != 0) continue;
        if (e.fk != fk || e.neighbor_is_from_side != pv_is_from) continue;
        if (base.relations()[static_cast<size_t>(e.neighbor)] == relation &&
            base.row(e.neighbor) == row) {
          merged = e.neighbor;
          break;
        }
      }
      if (merged != kNoVertex) {
        cur = merged;
        visited_[static_cast<size_t>(merged)] = 1;
        continue;
      }
      grafting = true;
    }
    // Graft pv as a new child of cur.
    cur = result.AddVertex(relation, row, cur, fk, pv_is_from);
  }

  // The chain end now corresponds to `cur`; project the new key there.
  result.AddProjection(
      ptp_new->target_column, cur, ptp_new->attribute,
      ptp.match_score(static_cast<size_t>(ptp_new - ptp.projections().data())));
  return result;
}

std::string TuplePath::ToString(const storage::Database& db) const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < relations_.size(); ++i) {
    const storage::Relation& rel = db.relation(relations_[i]);
    std::string s = rel.name() + "#" + std::to_string(rows_[i]);
    for (const Projection& p : projections_) {
      if (p.vertex == static_cast<VertexId>(i)) {
        s += StrFormat("[%d:%s]", p.target_column,
                       rel.schema().attribute(p.attribute).name.c_str());
      }
    }
    parts.push_back(std::move(s));
  }
  return Join(parts, " - ");
}

}  // namespace mweaver::core
