#include "query/executor.h"

#include <algorithm>
#include <functional>
#include <set>

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

// Per-vertex keyword constraints gathered from the projections that have a
// sample: (attribute, sample) pairs.
struct VertexConstraint {
  std::vector<std::pair<storage::AttributeId, std::string>> predicates;
  // Sorted candidate row ids; only meaningful when `restricted`. Rows
  // satisfying every predicate, possibly narrowed by NarrowBySemiJoins.
  std::vector<storage::RowId> rows;
  // Set for vertices with predicates and for vertices narrowed by a
  // constrained subtree.
  bool restricted = false;
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
  storage::AttributeId vertex_attr;    // join attr on `vertex`'s side
  storage::AttributeId from_attr;      // join attr on `from`'s side
  // Earlier-assigned vertices that are neighbors of `from` via the same FK
  // and orientation as `vertex`: their rows must differ from `vertex`'s
  // (see the normal-form note in executor.h).
  std::vector<VertexId> distinct_from;
  // `vertex`'s relation's index on vertex_attr, resolved once per plan
  // rather than once per enumeration node: IndexOn takes the relation's
  // lock, which every thread evaluating paths over it contends on.
  const storage::HashIndex* index = nullptr;
};

bool SortedContains(const std::vector<storage::RowId>& sorted,
                    storage::RowId row) {
  return std::binary_search(sorted.begin(), sorted.end(), row);
}

// The complete evaluation plan for one mapping + constraint set.
struct Plan {
  std::vector<VertexConstraint> constraints;  // per mapping vertex
  VertexId start = 0;
  std::vector<Step> steps;  // empty iff a constraint set is empty
  bool provably_empty = false;
};

// Plan construction shared by Execute and Explain: gather per-vertex
// constraint row sets, pick the most selective start vertex, and lay out
// the BFS join order with the normal-form distinctness lists. `counters`
// (may be null) accumulates the keyword probes' statistics.
Result<Plan> BuildPlan(const text::FullTextEngine& engine,
                       const MappingPath& mapping, const SampleMap& samples,
                       text::ProbeCounters* counters) {
  const storage::Database& db = engine.db();
  const size_t n = mapping.num_vertices();
  if (n == 0) {
    return Status::InvalidArgument("empty mapping path");
  }
  for (const Projection& p : mapping.projections()) {
    if (p.vertex < 0 || static_cast<size_t>(p.vertex) >= n) {
      return Status::InvalidArgument(
          StrFormat("projection for column %d references vertex %d of a "
                    "%zu-vertex path",
                    p.target_column, p.vertex, n));
    }
  }

  Plan plan;
  // 1. Gather per-vertex keyword constraints and their verified row sets.
  plan.constraints.resize(n);
  for (const Projection& p : mapping.projections()) {
    auto it = samples.find(p.target_column);
    if (it == samples.end() || it->second.empty()) continue;
    plan.constraints[static_cast<size_t>(p.vertex)].predicates.emplace_back(
        p.attribute, it->second);
  }
  for (size_t v = 0; v < n; ++v) {
    VertexConstraint& c = plan.constraints[v];
    if (c.predicates.empty()) continue;
    c.restricted = true;
    const storage::RelationId rel =
        mapping.vertex(static_cast<VertexId>(v)).relation;
    bool first = true;
    for (const auto& [attr, sample] : c.predicates) {
      const text::RowSet rows =
          engine.MatchingRows(text::AttributeRef{rel, attr}, sample, counters);
      if (first) {
        c.rows = *rows;
        first = false;
      } else {
        std::vector<storage::RowId> merged;
        std::set_intersection(c.rows.begin(), c.rows.end(), rows->begin(),
                              rows->end(), std::back_inserter(merged));
        c.rows = std::move(merged);
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
    if (!plan.constraints[v].predicates.empty() &&
        plan.constraints[v].rows.size() < best) {
      best = plan.constraints[v].rows.size();
      plan.start = static_cast<VertexId>(v);
    }
  }

  // 3. Traversal order: BFS from the start so each step joins to an
  // already-assigned vertex.
  const auto adj = BuildAdjacency(mapping.vertices());
  // assign_order[v] = position of v in `steps` (SIZE_MAX = unassigned).
  std::vector<size_t> assign_order(n, SIZE_MAX);
  assign_order[static_cast<size_t>(plan.start)] = 0;
  plan.steps.push_back(Step{plan.start, kNoVertex,
                            storage::kInvalidAttribute,
                            storage::kInvalidAttribute, {}});
  std::vector<VertexId> frontier{plan.start};
  while (!frontier.empty()) {
    std::vector<VertexId> next;
    for (VertexId u : frontier) {
      for (const AdjEdge& e : adj[static_cast<size_t>(u)]) {
        if (assign_order[static_cast<size_t>(e.neighbor)] != SIZE_MAX) {
          continue;
        }
        const storage::ForeignKey& fk =
            db.foreign_keys()[static_cast<size_t>(e.fk)];
        const storage::AttributeId v_attr =
            e.neighbor_is_from_side ? fk.from_attribute : fk.to_attribute;
        const storage::AttributeId u_attr =
            e.neighbor_is_from_side ? fk.to_attribute : fk.from_attribute;
        Step step{e.neighbor, u, v_attr, u_attr, {},
                  &db.relation(mapping.vertex(e.neighbor).relation)
                       .IndexOn(v_attr)};
        // Normal form: the new vertex must differ from every already-
        // assigned neighbor of `u` reached via the same FK/orientation.
        for (const AdjEdge& other : adj[static_cast<size_t>(u)]) {
          if (other.neighbor != e.neighbor && other.fk == e.fk &&
              other.neighbor_is_from_side == e.neighbor_is_from_side &&
              assign_order[static_cast<size_t>(other.neighbor)] !=
                  SIZE_MAX) {
            step.distinct_from.push_back(other.neighbor);
          }
        }
        assign_order[static_cast<size_t>(e.neighbor)] = plan.steps.size();
        plan.steps.push_back(std::move(step));
        next.push_back(e.neighbor);
      }
    }
    frontier = std::move(next);
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
void NarrowBySemiJoins(const storage::Database& db, const MappingPath& mapping,
                       Plan* plan) {
  for (size_t i = plan->steps.size(); i-- > 1;) {
    const Step& step = plan->steps[i];
    const VertexConstraint& child =
        plan->constraints[static_cast<size_t>(step.vertex)];
    if (!child.restricted) continue;
    const storage::Relation& child_rel =
        db.relation(mapping.vertex(step.vertex).relation);
    const storage::HashIndex& parent_index =
        db.relation(mapping.vertex(step.from).relation)
            .IndexOn(step.from_attr);
    std::vector<storage::RowId> joined;
    for (storage::RowId row : child.rows) {
      const storage::Value& value = child_rel.at(row, step.vertex_attr);
      if (value.is_null()) continue;
      const std::vector<storage::RowId>& parents = parent_index.Lookup(value);
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
      parent.rows = std::move(both);
    } else {
      parent.rows = std::move(joined);
      parent.restricted = true;
    }
    if (parent.rows.empty()) {
      plan->provably_empty = true;
      return;
    }
  }
}

}  // namespace

PathExecutor::PathExecutor(const text::FullTextEngine* engine)
    : engine_(engine) {
  MW_CHECK(engine != nullptr);
}

Result<std::vector<core::TuplePath>> PathExecutor::Execute(
    const core::MappingPath& mapping, const SampleMap& samples,
    const ExecOptions& options, core::ExecutionContext* ctx) const {
  const storage::Database& db = engine_->db();
  const size_t n = mapping.num_vertices();
  MW_ASSIGN_OR_RETURN(
      Plan plan,
      BuildPlan(*engine_, mapping, samples,
                ctx != nullptr ? &ctx->probe_counters() : nullptr));
  if (plan.provably_empty) return std::vector<core::TuplePath>{};
  const std::vector<VertexConstraint>& constraints = plan.constraints;
  const std::vector<Step>& steps = plan.steps;

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
  std::function<void(size_t)> enumerate = [&](size_t step_index) {
    if (done) return;
    // One poll per enumeration node bounds the overrun to a single
    // assignment's fan-out; ShouldStop throttles the actual clock reads.
    if (ctx != nullptr && ctx->ShouldStop()) {
      done = true;
      return;
    }
    if (nodes_left > 0 && --nodes_left == 0) {
      out_of_nodes = done = true;
      return;
    }
    if (step_index == steps.size()) {
      emit();
      if (options.stop_at_first ||
          (options.max_results > 0 && results.size() >= options.max_results)) {
        done = true;
      }
      return;
    }
    const Step& step = steps[step_index];
    const size_t v = static_cast<size_t>(step.vertex);
    const storage::Relation& rel =
        db.relation(mapping.vertex(step.vertex).relation);

    if (step.from == kNoVertex) {
      // Start vertex: iterate its constrained candidates, or every row.
      if (constraints[v].restricted) {
        for (storage::RowId row : constraints[v].rows) {
          assignment[v] = row;
          enumerate(step_index + 1);
          if (done) return;
        }
      } else {
        for (size_t r = 0; r < rel.num_rows(); ++r) {
          if (rel.is_deleted(static_cast<storage::RowId>(r))) continue;
          assignment[v] = static_cast<storage::RowId>(r);
          enumerate(step_index + 1);
          if (done) return;
        }
      }
      return;
    }

    const storage::Relation& from_rel =
        db.relation(mapping.vertex(step.from).relation);
    const storage::Value& join_value = from_rel.at(
        assignment[static_cast<size_t>(step.from)], step.from_attr);
    if (join_value.is_null()) return;  // inner join: NULL never matches
    const std::vector<storage::RowId>& joined =
        step.index->Lookup(join_value);
    for (storage::RowId row : joined) {
      if (constraints[v].restricted &&
          !SortedContains(constraints[v].rows, row)) {
        continue;
      }
      bool duplicate_sibling = false;
      for (VertexId w : step.distinct_from) {
        if (assignment[static_cast<size_t>(w)] == row) {
          duplicate_sibling = true;
          break;
        }
      }
      if (duplicate_sibling) continue;
      assignment[v] = row;
      enumerate(step_index + 1);
      if (done) return;
    }
  };
  enumerate(0);
  if (out_of_nodes) {
    // Narrow, then enumerate again from scratch, without a budget: the
    // narrowed run emits the same paths in the same order.
    NarrowBySemiJoins(db, mapping, &plan);
    results.clear();
    if (plan.provably_empty) return results;
    done = false;
    enumerate(0);
  }
  return results;
}

Result<std::string> PathExecutor::Explain(const core::MappingPath& mapping,
                                          const SampleMap& samples) const {
  const storage::Database& db = engine_->db();
  MW_ASSIGN_OR_RETURN(Plan plan,
                      BuildPlan(*engine_, mapping, samples, nullptr));
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
      if (c.predicates.empty()) {
        out += StrFormat(" (%zu rows)", rel.num_rows());
      } else {
        out += StrFormat(" via full-text candidates (%zu rows)",
                         c.rows.size());
      }
    } else {
      const storage::Relation& from_rel =
          db.relation(mapping.vertex(step.from).relation);
      out += StrFormat(
          "index join %s.%s = %s.%s", rel.name().c_str(),
          rel.schema().attribute(step.vertex_attr).name.c_str(),
          from_rel.name().c_str(),
          from_rel.schema().attribute(step.from_attr).name.c_str());
      if (!c.predicates.empty()) {
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
