#include "core/pairwise.h"

#include <array>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/canonical_key.h"
#include "core/parallel_stage.h"

namespace mweaver::core {

namespace {

// One step of a schema-graph walk: the relation reached, the FK used, and
// which side of the FK the new vertex occupies.
struct WalkStep {
  storage::RelationId relation;
  storage::ForeignKeyId fk;
  bool is_from_side;
};

// Builds the chain mapping path for a walk from `start_rel` (projecting
// column i from `start_attr`) to the walk's endpoint (projecting column j
// from `end_attr`).
MappingPath BuildChain(storage::RelationId start_rel,
                       const std::vector<WalkStep>& walk, int i,
                       storage::AttributeId start_attr, int j,
                       storage::AttributeId end_attr) {
  MappingPath path = MappingPath::SingleVertex(start_rel);
  VertexId last = 0;
  for (const WalkStep& step : walk) {
    last = path.AddVertex(step.relation, last, step.fk, step.is_from_side);
  }
  path.AddProjection(i, 0, start_attr);
  path.AddProjection(j, last, end_attr);
  return path;
}

}  // namespace

PairwiseMappingMap GeneratePairwiseMappingPaths(
    const graph::SchemaGraph& schema_graph, const LocationMap& locations,
    const SearchOptions& options, ExecutionContext& ctx) {
  const int pmnj = options.pmnj;
  const storage::Database& db = schema_graph.db();
  const size_t m = locations.num_columns();
  PairwiseMappingMap pmpm;
  // Keys already emitted, each prefixed by its column pair.
  CanonicalKeySet seen;
  std::vector<KeyToken> seen_key;

  // Attributes of L(j) grouped by relation, for endpoint lookups.
  std::vector<std::map<storage::RelationId, std::vector<storage::AttributeId>>>
      attrs_by_relation(m);
  for (size_t j = 0; j < m; ++j) {
    for (const text::AttributeRef& attr : locations.AttributesOf(j)) {
      attrs_by_relation[j][attr.relation].push_back(attr.attribute);
    }
  }

  for (size_t i = 0; i < m; ++i) {
    for (const text::AttributeRef& start : locations.AttributesOf(i)) {
      if (ctx.ShouldStop()) return pmpm;
      // Breadth-first enumeration of every walk of at most `pmnj` edges
      // starting at the relation containing A_i (Algorithm 3). Walks may
      // revisit relations: relation paths are occurrence trees.
      std::vector<std::vector<WalkStep>> frontier{{}};
      for (int depth = 0; depth <= pmnj && !frontier.empty(); ++depth) {
        if (ctx.ShouldStop()) return pmpm;
        for (const std::vector<WalkStep>& walk : frontier) {
          const storage::RelationId endpoint =
              walk.empty() ? start.relation : walk.back().relation;
          // Emit a pairwise mapping for every later column whose location
          // map has attributes on the endpoint relation (Algorithm 3 line
          // 6-11, Algorithm 4).
          for (size_t j = i + 1; j < m; ++j) {
            auto it = attrs_by_relation[j].find(endpoint);
            if (it == attrs_by_relation[j].end()) continue;
            for (storage::AttributeId end_attr : it->second) {
              MappingPath path =
                  BuildChain(start.relation, walk, static_cast<int>(i),
                             start.attribute, static_cast<int>(j), end_attr);
              const ColumnPair key{static_cast<int>(i), static_cast<int>(j)};
              seen_key.assign({key.first, key.second});
              AppendCanonicalKey(path, &seen_key);
              if (seen.Insert(seen_key).inserted) {
                pmpm[key].push_back(std::move(path));
              }
            }
          }
        }
        if (depth == pmnj) break;
        // Extend every frontier walk by one schema-graph edge.
        std::vector<std::vector<WalkStep>> next;
        for (const std::vector<WalkStep>& walk : frontier) {
          const storage::RelationId endpoint =
              walk.empty() ? start.relation : walk.back().relation;
          for (const graph::SchemaEdge& e :
               schema_graph.Neighbors(endpoint)) {
            const storage::ForeignKey& fk =
                db.foreign_keys()[static_cast<size_t>(e.fk)];
            std::vector<bool> orientations;
            if (fk.from_relation == fk.to_relation) {
              // Self-referencing FK: the new vertex can sit on either side
              // (unless both sides are the same attribute).
              orientations = fk.from_attribute == fk.to_attribute
                                 ? std::vector<bool>{true}
                                 : std::vector<bool>{true, false};
            } else {
              orientations = {e.neighbor == fk.from_relation};
            }
            for (bool is_from_side : orientations) {
              std::vector<WalkStep> extended = walk;
              extended.push_back(WalkStep{e.neighbor, e.fk, is_from_side});
              next.push_back(std::move(extended));
            }
          }
        }
        frontier = std::move(next);
      }
    }
  }
  return pmpm;
}

Result<PairwiseTupleMap> CreatePairwiseTuplePaths(
    const query::PathExecutor& executor, const PairwiseMappingMap& pmpm,
    const LocationMap& locations, const SearchOptions& options,
    ExecutionContext& ctx, PairwiseStats* stats) {
  // Chaos site: a transient failure at the pairwise-execution stage (the
  // stage issuing the approximate-search queries, i.e. the place a real
  // storage backend would flake).
  MW_FAILPOINT_RETURN_NOT_OK("core.pairwise.exec");
  // Flatten the work list so the per-mapping queries can run in parallel;
  // results are merged back in flattened order, keeping the output
  // deterministic for any thread count. Each query borrows its samples'
  // matching rows from the location map, which probed the same engine for
  // the same (attribute, sample) pairs, instead of probing again.
  struct WorkItem {
    ColumnPair key;
    const MappingPath* mapping;
    const query::SampleMap* samples;
    // Per projection (a pairwise mapping has two), its rows in `locations`.
    std::array<const std::vector<storage::RowId>*, 2> rows;
  };
  std::vector<query::SampleMap> pair_samples;
  pair_samples.reserve(pmpm.size());
  std::vector<WorkItem> work;
  for (const auto& [key, mappings] : pmpm) {
    const auto& [i, j] = key;
    const query::SampleMap& samples = pair_samples.emplace_back(
        query::SampleMap{{i, locations.column(static_cast<size_t>(i)).sample},
                         {j, locations.column(static_cast<size_t>(j)).sample}});
    for (const MappingPath& mapping : mappings) {
      WorkItem item{key, &mapping, &samples, {}};
      const std::vector<Projection>& projections = mapping.projections();
      for (size_t k = 0; k < projections.size() && k < item.rows.size();
           ++k) {
        const Projection& p = projections[k];
        item.rows[k] = locations.RowsOf(
            static_cast<size_t>(p.target_column),
            text::AttributeRef{mapping.vertex(p.vertex).relation,
                               p.attribute});
      }
      work.push_back(item);
    }
  }

  query::ExecOptions exec_options;
  exec_options.max_results = options.max_tuple_paths_per_mapping;
  std::vector<Result<std::vector<TuplePath>>> results(
      work.size(), Result<std::vector<TuplePath>>(std::vector<TuplePath>{}));
  // One stop check per query keeps the overhead negligible (each query is
  // orders of magnitude heavier than a clock read, and ShouldStop itself
  // throttles clock reads); the sticky latch makes late work items skip
  // without re-reading the clock. Each worker polls and records through its
  // own child context view; a stop observed by one (deadline, cancel, the
  // chaos failpoint below) propagates to the rest via the shared latch.
  ParallelStageFor(
      &ctx, SearchStage::kPairwiseExec, work.size(), options.num_threads,
      [&](ExecutionContext* wctx, size_t idx) {
        // Chaos site: a spurious cancel landing mid-enumeration (client
        // disconnect). Unlike core.weave.step this is reachable for
        // two-column targets, where the weave loop never runs.
        if (MW_FAILPOINT_FIRE("core.pairwise.step") == FailAction::kCancel) {
          wctx->RequestStop();
        }
        if (wctx->ShouldStop()) return;
        const WorkItem& item = work[idx];
        results[idx] = executor.Execute(*item.mapping, *item.samples,
                                        exec_options, wctx, item.rows);
      });

  PairwiseTupleMap ptpm;
  PairwiseStats local;
  local.deadline_expired = ctx.stop_requested();
  for (size_t idx = 0; idx < work.size(); ++idx) {
    ++local.num_mappings;
    MW_ASSIGN_OR_RETURN(std::vector<TuplePath> supports,
                        std::move(results[idx]));
    if (supports.empty()) continue;  // prune unsupported mappings
    ++local.num_valid_mappings;
    local.num_tuple_paths += supports.size();
    if (options.max_tuple_paths_per_mapping > 0 &&
        supports.size() >= options.max_tuple_paths_per_mapping) {
      local.truncated = true;
    }
    std::vector<TuplePath>& bucket = ptpm[work[idx].key];
    for (TuplePath& tp : supports) bucket.push_back(std::move(tp));
  }
  if (stats != nullptr) *stats = local;
  return ptpm;
}

}  // namespace mweaver::core
