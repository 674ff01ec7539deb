#include "core/weaver.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/canonical_key.h"

namespace mweaver::core {

std::vector<TuplePath> GenerateCompleteTuplePaths(const PairwiseTupleMap& ptpm,
                                                  int num_columns,
                                                  const SearchOptions& options,
                                                  ExecutionContext& ctx,
                                                  WeaveStats* stats) {
  MW_CHECK_GE(num_columns, 2);
  const size_t m = static_cast<size_t>(num_columns);
  WeaveStats local;
  local.tuple_paths_per_level.assign(m + 1, 0);
  std::pmr::memory_resource* const arena = ctx.resource();

  // Level 2: all pairwise tuple paths, deduplicated and cloned onto the
  // arena so every level (and the returned paths) shares one allocator.
  std::vector<TuplePath> level;
  std::vector<KeyToken> key;
  {
    CanonicalKeySet seen;
    for (const auto& [columns, paths] : ptpm) {
      for (const TuplePath& tp : paths) {
        key.clear();
        AppendCanonicalKey(tp, &key);
        if (seen.Insert(key).inserted) level.emplace_back(tp, arena);
      }
    }
  }
  local.tuple_paths_per_level[std::min<size_t>(2, m)] = level.size();
  local.total_tuple_paths = level.size();

  auto over_budget = [&]() {
    return (options.max_total_tuple_paths > 0 &&
            local.total_tuple_paths > options.max_total_tuple_paths) ||
           ctx.OverMemoryBudget();
  };

  WeaveScratch weaver;
  for (size_t n = 2; n < m && !level.empty(); ++n) {
    std::vector<TuplePath> next;
    CanonicalKeySet seen;
    for (const TuplePath& base : level) {
      // Chaos site: a spurious cancellation landing mid-weave, exactly as a
      // client disconnect would — the run must still surface a classified,
      // truncated result.
      if (MW_FAILPOINT_FIRE("core.weave.step") == FailAction::kCancel) {
        ctx.RequestStop();
      }
      // One stop check per base path: bases fan out into many weave
      // attempts, so this bounds the overrun without a clock read per
      // attempt (ShouldStop throttles clock reads further).
      if (ctx.ShouldStop()) {
        local.truncated = true;
        local.deadline_expired = true;
        break;
      }
      weaver.Reset(base);
      for (const auto& [columns, pairwise_paths] : ptpm) {
        // Weavable iff the pairwise keys intersect the base's in exactly
        // one column (Algorithm 5, line 8).
        const int in_base = (weaver.Covers(columns.first) ? 1 : 0) +
                            (weaver.Covers(columns.second) ? 1 : 0);
        if (in_base != 1) continue;
        for (const TuplePath& ptp : pairwise_paths) {
          ++local.weave_attempts;
          std::optional<TuplePath> woven = weaver.Weave(ptp, arena);
          if (!woven.has_value()) continue;
          ++local.weave_successes;
          key.clear();
          AppendCanonicalKey(*woven, &key);
          if (seen.Insert(key).inserted) {
            next.push_back(std::move(*woven));
            ++local.total_tuple_paths;
            if (over_budget()) {
              local.truncated = true;
              break;
            }
          }
        }
        if (local.truncated) break;
      }
      if (local.truncated) break;
    }
    local.tuple_paths_per_level[n + 1] = next.size();
    level = std::move(next);
    if (local.truncated) break;
  }

  if (stats != nullptr) *stats = local;
  return level;
}

}  // namespace mweaver::core
