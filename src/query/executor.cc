#include "query/executor.h"

#include <algorithm>
#include <set>
#include <span>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/path_internal.h"

namespace mweaver::query {

namespace {

using core::MappingPath;
using core::PathVertex;
using core::Projection;
using core::TuplePath;
using core::VertexId;
using core::kNoVertex;
using core::internal::AdjEdge;
using core::internal::BuildAdjacency;

// Per-vertex candidate rows: the rows satisfying every keyword predicate on
// the vertex, possibly narrowed by NarrowBySemiJoins.
struct VertexConstraint {
  // Sorted candidate row ids; only meaningful when `restricted`. Points at a
  // caller's borrowed row set, at `probed`, or at `owned`.
  std::span<const storage::RowId> rows;
  text::RowSet probed;               // keeps a probe's result alive
  std::vector<storage::RowId> owned;  // intersected or narrowed sets
  // Set for vertices with keyword predicates; the start vertex is one.
  bool keyword = false;
  // Set for keyword vertices and for vertices narrowed by a constrained
  // subtree.
  bool restricted = false;

  void Own(std::vector<storage::RowId> set) {
    owned = std::move(set);
    rows = owned;
    restricted = true;
  }
};

// Enumeration nodes an Execute visits before it narrows the candidate sets
// by semi-joins and starts over: cheap queries never pay for the narrowing,
// and a query that outgrows the budget wastes at most this many nodes.
constexpr size_t kNarrowAfterNodes = 4096;

// One step of the traversal order: assign `vertex`, whose candidate rows
// come from joining `from` via `fk`.
struct Step {
  VertexId vertex;
  VertexId from;                       // kNoVertex for the start vertex
  storage::ForeignKeyId fk;
  bool vertex_is_from_side;            // `vertex` on `fk`'s from side
  // Earlier-assigned vertices that are neighbors of `from` via the same FK
  // and orientation as `vertex`: their rows must differ from `vertex`'s
  // (see the normal-form note in executor.h).
  std::vector<VertexId> distinct_from;
  // Rows of `from`'s relation -> joined rows of `vertex`'s relation,
  // resolved once per plan.
  const storage::JoinIndex* join = nullptr;
};

bool SortedContains(std::span<const storage::RowId> sorted,
                    storage::RowId row) {
  return std::binary_search(sorted.begin(), sorted.end(), row);
}

// The complete evaluation plan for one mapping + constraint set. Move-only:
// constraint row spans may point into the plan's own storage.
struct Plan {
  Plan() = default;
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  std::vector<VertexConstraint> constraints;  // per mapping vertex
  VertexId start = 0;
  std::vector<Step> steps;  // empty iff a constraint set is empty
  bool provably_empty = false;
};

// Plan construction shared by Execute and Explain: gather per-vertex
// constraint row sets (borrowed from `known_rows` where given, probed
// otherwise), pick the most selective start vertex, and lay out the BFS
// join order with the normal-form distinctness lists. `counters` (may be
// null) accumulates the keyword probes' statistics.
Result<Plan> BuildPlan(const text::FullTextEngine& engine,
                       const MappingPath& mapping, const SampleMap& samples,
                       ProjectionRows known_rows,
                       text::ProbeCounters* counters) {
  const storage::Database& db = engine.db();
  const size_t n = mapping.num_vertices();
  if (n == 0) {
    return Status::InvalidArgument("empty mapping path");
  }
  const std::vector<Projection>& projections = mapping.projections();
  for (const Projection& p : projections) {
    if (p.vertex < 0 || static_cast<size_t>(p.vertex) >= n) {
      return Status::InvalidArgument(
          StrFormat("projection for column %d references vertex %d of a "
                    "%zu-vertex path",
                    p.target_column, p.vertex, n));
    }
  }

  Plan plan;
  // 1. Per-vertex keyword constraints: intersect the matching rows of every
  // sampled projection on the vertex.
  plan.constraints.resize(n);
  for (size_t v = 0; v < n; ++v) {
    VertexConstraint& c = plan.constraints[v];
    const storage::RelationId rel =
        mapping.vertex(static_cast<VertexId>(v)).relation;
    for (size_t k = 0; k < projections.size(); ++k) {
      const Projection& p = projections[k];
      if (static_cast<size_t>(p.vertex) != v) continue;
      auto it = samples.find(p.target_column);
      if (it == samples.end() || it->second.empty()) continue;
      std::span<const storage::RowId> rows;
      text::RowSet probed;
      if (k < known_rows.size() && known_rows[k] != nullptr) {
        rows = *known_rows[k];
      } else {
        probed = engine.MatchingRows(text::AttributeRef{rel, p.attribute},
                                     it->second, counters);
        rows = *probed;
      }
      if (!c.keyword) {
        c.rows = rows;
        c.probed = std::move(probed);
        c.keyword = c.restricted = true;
      } else {
        std::vector<storage::RowId> merged;
        std::set_intersection(c.rows.begin(), c.rows.end(), rows.begin(),
                              rows.end(), std::back_inserter(merged));
        c.Own(std::move(merged));
      }
      if (c.rows.empty()) {
        plan.provably_empty = true;
        return plan;
      }
    }
  }

  // 2. Pick the start vertex: the constrained vertex with the fewest
  // candidates, falling back to vertex 0 for unconstrained queries.
  size_t best = SIZE_MAX;
  for (size_t v = 0; v < n; ++v) {
    if (plan.constraints[v].keyword && plan.constraints[v].rows.size() < best) {
      best = plan.constraints[v].rows.size();
      plan.start = static_cast<VertexId>(v);
    }
  }

  // 3. Traversal order: BFS from the start so each step joins to an
  // already-assigned vertex; `steps` doubles as the BFS queue.
  const auto adj = BuildAdjacency(mapping.vertices());
  // assign_order[v] = position of v in `steps` (SIZE_MAX = unassigned).
  std::vector<size_t> assign_order(n, SIZE_MAX);
  assign_order[static_cast<size_t>(plan.start)] = 0;
  plan.steps.reserve(n);
  plan.steps.push_back(Step{plan.start, kNoVertex, -1, false, {}});
  for (size_t head = 0; head < plan.steps.size(); ++head) {
    const VertexId u = plan.steps[head].vertex;
    for (const AdjEdge& e : adj[static_cast<size_t>(u)]) {
      if (assign_order[static_cast<size_t>(e.neighbor)] != SIZE_MAX) {
        continue;
      }
      Step step{e.neighbor, u, e.fk, e.neighbor_is_from_side, {},
                &db.JoinIndexOn(e.fk, !e.neighbor_is_from_side)};
      // Normal form: the new vertex must differ from every already-
      // assigned neighbor of `u` reached via the same FK/orientation.
      for (const AdjEdge& other : adj[static_cast<size_t>(u)]) {
        if (other.neighbor != e.neighbor && other.fk == e.fk &&
            other.neighbor_is_from_side == e.neighbor_is_from_side &&
            assign_order[static_cast<size_t>(other.neighbor)] != SIZE_MAX) {
          step.distinct_from.push_back(other.neighbor);
        }
      }
      assign_order[static_cast<size_t>(e.neighbor)] = plan.steps.size();
      plan.steps.push_back(std::move(step));
    }
  }
  MW_CHECK_EQ(plan.steps.size(), n) << "mapping path is not connected";
  return plan;
}

// The bottom-up semi-join pass of Yannakakis' algorithm over the plan's
// join tree: walking the steps leaves first, each restricted vertex
// restricts its parent to the rows that join at least one of its
// candidates. A dropped row joins no candidate of some constrained subtree,
// so it is part of no supporting assignment; the normal-form distinctness
// is left to the enumeration, which can only leave extra rows here. The
// narrowed sets therefore prune dead branches only, and the enumeration
// emits the same tuple paths in the same order. Sets `provably_empty` when
// a vertex is left without candidates.
void NarrowBySemiJoins(const storage::Database& db, Plan* plan) {
  for (size_t i = plan->steps.size(); i-- > 1;) {
    const Step& step = plan->steps[i];
    const VertexConstraint& child =
        plan->constraints[static_cast<size_t>(step.vertex)];
    if (!child.restricted) continue;
    // Rows of `vertex`'s relation -> joined rows of `from`'s relation.
    const storage::JoinIndex& up =
        db.JoinIndexOn(step.fk, step.vertex_is_from_side);
    std::vector<storage::RowId> joined;
    for (storage::RowId row : child.rows) {
      const std::span<const uint32_t> parents = up.Joined(row);
      joined.insert(joined.end(), parents.begin(), parents.end());
    }
    std::sort(joined.begin(), joined.end());
    joined.erase(std::unique(joined.begin(), joined.end()), joined.end());
    VertexConstraint& parent =
        plan->constraints[static_cast<size_t>(step.from)];
    if (parent.restricted) {
      std::vector<storage::RowId> both;
      std::set_intersection(parent.rows.begin(), parent.rows.end(),
                            joined.begin(), joined.end(),
                            std::back_inserter(both));
      parent.Own(std::move(both));
    } else {
      parent.Own(std::move(joined));
    }
    if (parent.rows.empty()) {
      plan->provably_empty = true;
      return;
    }
  }
}

// Where one step's enumeration stands: positions [pos, end) of its
// candidates are still to be tried. A join step walks the join index run
// `joined`; the start step walks its constraint rows, or every row of its
// relation when it has none.
struct Cursor {
  const uint32_t* joined = nullptr;
  size_t pos = 0;
  size_t end = 0;
};

}  // namespace

PathExecutor::PathExecutor(const text::FullTextEngine* engine)
    : engine_(engine) {
  MW_CHECK(engine != nullptr);
}

Result<std::vector<core::TuplePath>> PathExecutor::Execute(
    const core::MappingPath& mapping, const SampleMap& samples,
    const ExecOptions& options, core::ExecutionContext* ctx,
    ProjectionRows known_rows) const {
  const storage::Database& db = engine_->db();
  const size_t n = mapping.num_vertices();
  MW_ASSIGN_OR_RETURN(
      Plan plan,
      BuildPlan(*engine_, mapping, samples, known_rows,
                ctx != nullptr ? &ctx->probe_counters() : nullptr));
  if (plan.provably_empty) return std::vector<core::TuplePath>{};
  const std::vector<VertexConstraint>& constraints = plan.constraints;
  const std::vector<Step>& steps = plan.steps;
  const storage::Relation& start_rel =
      db.relation(mapping.vertex(plan.start).relation);

  // 4. Depth-first enumeration of row assignments along the steps.
  std::vector<core::TuplePath> results;
  std::vector<storage::RowId> assignment(n, -1);

  // Builds a TuplePath mirroring the mapping's own rooted structure, so
  // projections transfer vertex-for-vertex.
  auto emit = [&]() {
    TuplePath tp = TuplePath::SingleVertex(mapping.vertex(0).relation,
                                           assignment[0]);
    for (size_t v = 1; v < n; ++v) {
      const PathVertex& pv = mapping.vertex(static_cast<VertexId>(v));
      tp.AddVertex(pv.relation, assignment[v], pv.parent, pv.fk_to_parent,
                   pv.is_from_side);
    }
    for (const Projection& p : mapping.projections()) {
      double score = 1.0;
      auto it = samples.find(p.target_column);
      if (it != samples.end() && !it->second.empty()) {
        const storage::RelationId rel = mapping.vertex(p.vertex).relation;
        score = engine_->RowMatchScore(
            text::AttributeRef{rel, p.attribute},
            assignment[static_cast<size_t>(p.vertex)], it->second);
      }
      tp.AddProjection(p.target_column, p.vertex, p.attribute, score);
    }
    results.push_back(std::move(tp));
  };

  bool done = false;
  // Nodes left before the narrowing (0 = no budget). Unconstrained queries
  // have nothing to narrow by.
  size_t nodes_left = constraints[static_cast<size_t>(plan.start)].restricted
                          ? kNarrowAfterNodes
                          : 0;
  bool out_of_nodes = false;
  // cursors[d] walks the candidates of steps[d]; a node of the search tree
  // is an assignment of steps[0, d).
  std::vector<Cursor> cursors(steps.size());

  // Enters the node whose next step is `d`. False when the node has no
  // children: it is a full assignment (emitted here), or the run is done.
  // One poll per node bounds the overrun to a single assignment's fan-out;
  // ShouldStop throttles the actual clock reads.
  auto enter = [&](size_t d) {
    if (ctx != nullptr && ctx->ShouldStop()) {
      done = true;
      return false;
    }
    if (nodes_left > 0 && --nodes_left == 0) {
      out_of_nodes = done = true;
      return false;
    }
    if (d == steps.size()) {
      emit();
      if (options.stop_at_first ||
          (options.max_results > 0 && results.size() >= options.max_results)) {
        done = true;
      }
      return false;
    }
    const Step& step = steps[d];
    Cursor& cursor = cursors[d];
    cursor.pos = 0;
    if (step.from == kNoVertex) {
      const VertexConstraint& c = constraints[static_cast<size_t>(step.vertex)];
      cursor.end = c.restricted ? c.rows.size() : start_rel.num_rows();
    } else {
      const std::span<const uint32_t> run =
          step.join->Joined(assignment[static_cast<size_t>(step.from)]);
      cursor.joined = run.data();
      cursor.end = run.size();
    }
    return true;
  };

  // Assigns steps[d]'s next candidate; false once they are exhausted.
  auto advance = [&](size_t d) {
    const Step& step = steps[d];
    Cursor& cursor = cursors[d];
    const VertexConstraint& c = constraints[static_cast<size_t>(step.vertex)];
    storage::RowId& slot = assignment[static_cast<size_t>(step.vertex)];
    while (cursor.pos < cursor.end) {
      const size_t i = cursor.pos++;
      if (step.from == kNoVertex) {
        // Start vertex: its constrained candidates, or every live row.
        if (c.restricted) {
          slot = c.rows[i];
          return true;
        }
        if (start_rel.is_deleted(static_cast<storage::RowId>(i))) continue;
        slot = static_cast<storage::RowId>(i);
        return true;
      }
      const storage::RowId row = cursor.joined[i];
      if (c.restricted && !SortedContains(c.rows, row)) continue;
      bool duplicate_sibling = false;
      for (VertexId w : step.distinct_from) {
        if (assignment[static_cast<size_t>(w)] == row) {
          duplicate_sibling = true;
          break;
        }
      }
      if (duplicate_sibling) continue;
      slot = row;
      return true;
    }
    return false;
  };

  auto enumerate = [&]() {
    if (!enter(0)) return;
    size_t d = 0;
    while (true) {
      if (!advance(d)) {
        if (d == 0) return;
        --d;
      } else if (enter(d + 1)) {
        ++d;
      } else if (done) {
        return;
      }
    }
  };
  enumerate();
  if (out_of_nodes) {
    // Narrow, then enumerate again from scratch, without a budget: the
    // narrowed run emits the same paths in the same order.
    NarrowBySemiJoins(db, &plan);
    results.clear();
    if (plan.provably_empty) return results;
    done = false;
    enumerate();
  }
  return results;
}

Result<std::string> PathExecutor::Explain(const core::MappingPath& mapping,
                                          const SampleMap& samples) const {
  const storage::Database& db = engine_->db();
  MW_ASSIGN_OR_RETURN(Plan plan,
                      BuildPlan(*engine_, mapping, samples, {}, nullptr));
  std::string out = "plan for " + mapping.ToString(db) + "\n";
  if (plan.provably_empty) {
    out += "  provably empty: a keyword constraint matches no rows\n";
    return out;
  }
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const Step& step = plan.steps[i];
    const storage::Relation& rel =
        db.relation(mapping.vertex(step.vertex).relation);
    const VertexConstraint& c =
        plan.constraints[static_cast<size_t>(step.vertex)];
    out += StrFormat("  %zu. ", i + 1);
    if (step.from == kNoVertex) {
      out += "scan " + rel.name();
      if (!c.keyword) {
        out += StrFormat(" (%zu rows)", rel.num_rows());
      } else {
        out += StrFormat(" via full-text candidates (%zu rows)",
                         c.rows.size());
      }
    } else {
      const storage::Relation& from_rel =
          db.relation(mapping.vertex(step.from).relation);
      const storage::ForeignKey& fk = db.foreign_key(step.fk);
      const storage::AttributeId vertex_attr =
          step.vertex_is_from_side ? fk.from_attribute : fk.to_attribute;
      const storage::AttributeId from_attr =
          step.vertex_is_from_side ? fk.to_attribute : fk.from_attribute;
      out += StrFormat(
          "index join %s.%s = %s.%s", rel.name().c_str(),
          rel.schema().attribute(vertex_attr).name.c_str(),
          from_rel.name().c_str(),
          from_rel.schema().attribute(from_attr).name.c_str());
      if (c.keyword) {
        out += StrFormat(" ∩ full-text candidates (%zu rows)",
                         c.rows.size());
      }
      if (!step.distinct_from.empty()) {
        out += StrFormat(" [distinct from %zu sibling(s)]",
                         step.distinct_from.size());
      }
    }
    out += "\n";
  }
  return out;
}

Result<bool> PathExecutor::HasSupport(const core::MappingPath& mapping,
                                      const SampleMap& samples,
                                      core::ExecutionContext* ctx) const {
  ExecOptions options;
  options.stop_at_first = true;
  MW_ASSIGN_OR_RETURN(std::vector<core::TuplePath> paths,
                      Execute(mapping, samples, options, ctx));
  return !paths.empty();
}

Result<std::vector<std::vector<std::string>>> PathExecutor::EvaluateTarget(
    const core::MappingPath& mapping, size_t max_rows,
    core::ExecutionContext* ctx) const {
  ExecOptions options;
  options.max_results = max_rows;
  MW_ASSIGN_OR_RETURN(std::vector<core::TuplePath> paths,
                      Execute(mapping, SampleMap{}, options, ctx));
  std::set<std::vector<std::string>> distinct;
  for (const core::TuplePath& tp : paths) {
    distinct.insert(tp.ProjectTargetValues(engine_->db()));
  }
  return std::vector<std::vector<std::string>>(distinct.begin(),
                                               distinct.end());
}

}  // namespace mweaver::query
