// PathExecutor: evaluates mapping paths against the source instance.
//
// This is the engine behind three paper operations:
//  * pairwise tuple-path creation (Section 4.5.3): "translate the mapping
//    into an approximate search query ... execute it in the source database";
//  * pruning by mapping structure (Section 5): emptiness checks of keyword-
//    constrained candidate mappings;
//  * materializing M(DS) target rows (used by the workload generator, the
//    Eirene baseline and the naive baseline's validation step).
//
// Execution strategy: start from the most selective keyword-constrained
// vertex and enumerate tuple assignments by following the database's
// foreign-key join indexes (storage::JoinIndex) along the tree's edges —
// never scanning unrelated tuples.
//
// Normal form: two neighbors of the same vertex joined via the same foreign
// key and orientation must be assigned *distinct* tuples. Assignments
// violating this collapse to a structurally smaller mapping path (the two
// occurrences are the same tuple), which is exactly what TPW's Weave merges
// into one vertex; enforcing it here keeps the executor's notion of
// validity aligned with the tuple paths TPW constructs, for both the
// pairwise step and the naive baseline's validation queries.
#ifndef MWEAVER_QUERY_EXECUTOR_H_
#define MWEAVER_QUERY_EXECUTOR_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/execution_context.h"
#include "core/mapping_path.h"
#include "core/tuple_path.h"
#include "text/fulltext_engine.h"

namespace mweaver::query {

/// \brief Keyword constraints: target column -> user sample. Columns absent
/// from the map are unconstrained.
using SampleMap = std::map<int, std::string>;

/// \brief Keyword matches the caller already holds, one entry per mapping
/// projection in MappingPath::projections() order: the sorted rows of the
/// projection's attribute that noisily contain its column's sample, i.e.
/// what FullTextEngine::MatchingRows returns for them. Null entries (and
/// projections past the end) are probed. Borrowed for the call only.
using ProjectionRows = std::span<const std::vector<storage::RowId>* const>;

struct ExecOptions {
  /// Stop after this many tuple paths (0 = unlimited).
  size_t max_results = 0;
  /// Stop as soon as one result is found (emptiness / validity checks).
  bool stop_at_first = false;
};

/// \brief Evaluates mapping paths over a full-text-indexed database.
class PathExecutor {
 public:
  /// \brief `engine` must outlive the executor.
  explicit PathExecutor(const text::FullTextEngine* engine);

  const text::FullTextEngine& engine() const { return *engine_; }

  /// \brief All tuple paths instantiating `mapping` whose projected cells
  /// noisily contain the given samples. Fails only on malformed mappings
  /// (e.g. a projection for a column with no vertex). When `ctx` is given,
  /// the enumeration polls its deadline/cancel token and returns the
  /// results found so far on a stop. `known_rows` lets a caller that
  /// already probed the samples (the pairwise stage, from its location
  /// map) skip the re-probe.
  Result<std::vector<core::TuplePath>> Execute(
      const core::MappingPath& mapping, const SampleMap& samples,
      const ExecOptions& options = {}, core::ExecutionContext* ctx = nullptr,
      ProjectionRows known_rows = {}) const;

  /// \brief True iff at least one supporting tuple path exists. A stopped
  /// `ctx` reports false for support not yet found.
  Result<bool> HasSupport(const core::MappingPath& mapping,
                          const SampleMap& samples,
                          core::ExecutionContext* ctx = nullptr) const;

  /// \brief Human-readable EXPLAIN of the evaluation plan: start-vertex
  /// choice (most selective constraint), index-join order, candidate-set
  /// sizes, and distinctness guards.
  Result<std::string> Explain(const core::MappingPath& mapping,
                              const SampleMap& samples = {}) const;

  /// \brief Distinct projected target rows of M(DS) (display strings ordered
  /// by target column), up to `max_rows` tuple paths enumerated (0 =
  /// unlimited).
  Result<std::vector<std::vector<std::string>>> EvaluateTarget(
      const core::MappingPath& mapping, size_t max_rows = 0,
      core::ExecutionContext* ctx = nullptr) const;

 private:
  const text::FullTextEngine* engine_;
};

}  // namespace mweaver::query

#endif  // MWEAVER_QUERY_EXECUTOR_H_
