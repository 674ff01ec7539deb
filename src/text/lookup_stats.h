// Probe counters for the approximate-keyword lookup layer: how many
// per-attribute probes ran, how many were answered by the probe memo, how
// many dictionary tokens the n-gram / deletion-neighborhood indexes had to
// examine, and how often a probe fell back to a full dictionary scan.
//
// Two shapes, one set of fields:
//  * ProbeStats — a plain copyable tally. One lives on the stack of each
//    lookup call; snapshots of the atomic form embed into
//    core::ExecutionTrace and flow into service::ServiceMetrics.
//  * ProbeCounters — the atomic accumulator. One lives inside each
//    core::ExecutionContext (probes run concurrently from the pairwise
//    stage's ParallelFor workers) and one inside FullTextEngine for
//    engine-lifetime totals.
#ifndef MWEAVER_TEXT_LOOKUP_STATS_H_
#define MWEAVER_TEXT_LOOKUP_STATS_H_

#include <atomic>
#include <cstdint>

namespace mweaver::text {

/// \brief Plain tally of one (or many summed) approximate-lookup probes.
struct ProbeStats {
  /// Per-(attribute, sample) probes answered, memo hits included.
  uint64_t probes = 0;
  /// Probes answered straight from the probe memo.
  uint64_t memo_hits = 0;
  /// Probes that had to run a candidate lookup + verification pass.
  uint64_t memo_misses = 0;
  /// Dictionary tokens the candidate indexes examined (n-gram candidates
  /// verified, deletion-neighborhood candidates verified, or tokens touched
  /// by a scan fallback). The linear-scan baseline would examine
  /// |dictionary| per query token.
  uint64_t candidates_examined = 0;
  /// Query tokens that fell back to a full dictionary scan (edit bound
  /// beyond what the deletion index covers).
  uint64_t scan_fallbacks = 0;
  /// Probes whose sample tokenized to nothing (punctuation-only): the
  /// index returns every indexed row and the memo must not cache it.
  uint64_t all_rows_fallbacks = 0;
  // Block-posting kernel dispatch counters (see text/posting_block.h):
  // which container-pair shape each merge hit, and how often the scalar
  // fallback ran instead of a vector kernel (every merge, in a
  // -DMWEAVER_DISABLE_SIMD build).
  uint64_t kernel_array_array = 0;
  uint64_t kernel_array_bitmap = 0;
  uint64_t kernel_bitmap_bitmap = 0;
  uint64_t kernel_scalar_fallback = 0;

  void Add(const ProbeStats& other) {
    probes += other.probes;
    memo_hits += other.memo_hits;
    memo_misses += other.memo_misses;
    candidates_examined += other.candidates_examined;
    scan_fallbacks += other.scan_fallbacks;
    all_rows_fallbacks += other.all_rows_fallbacks;
    kernel_array_array += other.kernel_array_array;
    kernel_array_bitmap += other.kernel_array_bitmap;
    kernel_bitmap_bitmap += other.kernel_bitmap_bitmap;
    kernel_scalar_fallback += other.kernel_scalar_fallback;
  }
};

/// \brief Thread-safe accumulator of ProbeStats.
class ProbeCounters {
 public:
  /// \brief Adds `s` field by field, skipping zero fields. Most probes are
  /// memo hits with two non-zero fields, and every skipped add is one write
  /// fewer to counters other threads also update (the engine-wide totals
  /// are shared by every search).
  void Record(const ProbeStats& s) {
    AddIfNonZero(probes_, s.probes);
    AddIfNonZero(memo_hits_, s.memo_hits);
    AddIfNonZero(memo_misses_, s.memo_misses);
    AddIfNonZero(candidates_examined_, s.candidates_examined);
    AddIfNonZero(scan_fallbacks_, s.scan_fallbacks);
    AddIfNonZero(all_rows_fallbacks_, s.all_rows_fallbacks);
    AddIfNonZero(kernel_array_array_, s.kernel_array_array);
    AddIfNonZero(kernel_array_bitmap_, s.kernel_array_bitmap);
    AddIfNonZero(kernel_bitmap_bitmap_, s.kernel_bitmap_bitmap);
    AddIfNonZero(kernel_scalar_fallback_, s.kernel_scalar_fallback);
  }

  ProbeStats Snapshot() const {
    ProbeStats s;
    s.probes = probes_.load(std::memory_order_relaxed);
    s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
    s.memo_misses = memo_misses_.load(std::memory_order_relaxed);
    s.candidates_examined =
        candidates_examined_.load(std::memory_order_relaxed);
    s.scan_fallbacks = scan_fallbacks_.load(std::memory_order_relaxed);
    s.all_rows_fallbacks =
        all_rows_fallbacks_.load(std::memory_order_relaxed);
    s.kernel_array_array = kernel_array_array_.load(std::memory_order_relaxed);
    s.kernel_array_bitmap =
        kernel_array_bitmap_.load(std::memory_order_relaxed);
    s.kernel_bitmap_bitmap =
        kernel_bitmap_bitmap_.load(std::memory_order_relaxed);
    s.kernel_scalar_fallback =
        kernel_scalar_fallback_.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    probes_.store(0, std::memory_order_relaxed);
    memo_hits_.store(0, std::memory_order_relaxed);
    memo_misses_.store(0, std::memory_order_relaxed);
    candidates_examined_.store(0, std::memory_order_relaxed);
    scan_fallbacks_.store(0, std::memory_order_relaxed);
    all_rows_fallbacks_.store(0, std::memory_order_relaxed);
    kernel_array_array_.store(0, std::memory_order_relaxed);
    kernel_array_bitmap_.store(0, std::memory_order_relaxed);
    kernel_bitmap_bitmap_.store(0, std::memory_order_relaxed);
    kernel_scalar_fallback_.store(0, std::memory_order_relaxed);
  }

 private:
  static void AddIfNonZero(std::atomic<uint64_t>& counter, uint64_t n) {
    if (n != 0) counter.fetch_add(n, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> memo_misses_{0};
  std::atomic<uint64_t> candidates_examined_{0};
  std::atomic<uint64_t> scan_fallbacks_{0};
  std::atomic<uint64_t> all_rows_fallbacks_{0};
  std::atomic<uint64_t> kernel_array_array_{0};
  std::atomic<uint64_t> kernel_array_bitmap_{0};
  std::atomic<uint64_t> kernel_bitmap_bitmap_{0};
  std::atomic<uint64_t> kernel_scalar_fallback_{0};
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_LOOKUP_STATS_H_
