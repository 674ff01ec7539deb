#include "core/ranking.h"

#include <algorithm>
#include <string>

#include "core/canonical_key.h"

namespace mweaver::core {

double ScoreTuplePath(const TuplePath& path, const SearchOptions& options) {
  const double matching = path.MeanMatchScore();
  const double complexity =
      1.0 / (1.0 + static_cast<double>(path.num_joins()));
  return options.matching_weight * matching +
         options.complexity_weight * complexity;
}

std::vector<CandidateMapping> RankMappings(
    const std::vector<TuplePath>& complete_tuple_paths,
    const SearchOptions& options, ExecutionContext* ctx) {
  struct Group {
    CandidateMapping candidate;
    double score_total = 0.0;
  };
  // Groups in first-seen order, indexed by their mapping key's set id.
  std::vector<Group> groups;
  CanonicalKeySet seen;
  std::vector<KeyToken> key;
  for (const TuplePath& tp : complete_tuple_paths) {
    if (ctx != nullptr && ctx->ShouldStop()) break;
    key.clear();
    AppendMappingKey(tp, &key);
    const CanonicalKeySet::InsertResult slot = seen.Insert(key);
    if (slot.inserted) {
      groups.emplace_back();
      groups.back().candidate.mapping = tp.ExtractMappingPath();
    }
    Group& group = groups[slot.id];
    group.score_total += ScoreTuplePath(tp, options);
    ++group.candidate.support;
    if (group.candidate.example_tuple_paths.size() <
        options.retained_tuple_paths_per_mapping) {
      group.candidate.example_tuple_paths.push_back(tp);
    }
  }

  // The tie-break compares Canonical() strings, built once per group so
  // the sort never recomputes them.
  std::vector<std::pair<std::string, CandidateMapping>> keyed;
  keyed.reserve(groups.size());
  for (Group& group : groups) {
    group.candidate.score =
        group.score_total / static_cast<double>(group.candidate.support);
    keyed.emplace_back(group.candidate.mapping.Canonical(),
                       std::move(group.candidate));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) {
              if (a.second.score != b.second.score) {
                return a.second.score > b.second.score;
              }
              if (a.second.mapping.num_joins() !=
                  b.second.mapping.num_joins()) {
                return a.second.mapping.num_joins() <
                       b.second.mapping.num_joins();
              }
              return a.first < b.first;
            });
  std::vector<CandidateMapping> out;
  out.reserve(keyed.size());
  for (auto& [key, candidate] : keyed) out.push_back(std::move(candidate));
  return out;
}

}  // namespace mweaver::core
