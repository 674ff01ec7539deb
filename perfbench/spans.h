// In-memory span recording for the traced run of the mapping-session
// benchmark. The benchmark opens a span around each public call it makes
// into a library layer; spans stay in per-thread vectors until the run ends
// and are then written out as JSON lines. A span's layer is the prefix of
// its name up to the first '.', so "query.has_support" belongs to `query`.
#ifndef MWEAVER_PERFBENCH_SPANS_H_
#define MWEAVER_PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace mweaver::perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

inline int64_t NowNs() { return ToNs(Clock::now()); }

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same log, -1 for a root span.
  int32_t parent = -1;
  /// Spans of one session share the id (the request a span belongs to).
  uint64_t request = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// \brief One thread's spans. Open()/Close() nest: a span opened while
/// another is open becomes its child.
class SpanLog {
 public:
  int32_t Open(const char* name, uint64_t request) {
    spans_.push_back(Span{name, NowNs(), 0, current_, request});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }

  void Close(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    current_ = span.parent;
  }

  /// \brief Adds an already-finished span as a child of the currently open
  /// span, or as a root when none is open (the per-stage spans rebuilt from
  /// a SearchStats trace; keystrokes timed by completion callbacks).
  void AddChild(const char* name, int64_t start_ns, int64_t end_ns,
                uint64_t request) {
    spans_.push_back(Span{name, start_ns, end_ns, current_, request});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

/// \brief RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), index_(log != nullptr ? log->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// \brief Per-span self time: the span's duration minus the part of it
/// that its children's intervals cover. Also counts children that reach
/// outside their parent (the traced run's self-check).
struct SelfTimes {
  std::vector<int64_t> self_ns;
  size_t children_outside_parent = 0;
};

inline SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  SelfTimes out;
  out.self_ns.resize(spans.size());
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns ||
        span.end_ns < span.start_ns) {
      ++out.children_outside_parent;
    }
    children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                            span.end_ns);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    out.self_ns[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

/// \brief Layer of a span: its name up to the first '.'.
inline std::string LayerOf(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

/// \brief Writes every span as one JSON line: thread, index, name, start
/// and end (ns, steady clock), parent index, request id and self time.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    const SelfTimes self = ComputeSelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "{\"thread\":%zu,\"span\":%zu,\"name\":\"%s\",\"start_ns\":"
                   "%lld,\"end_ns\":%lld,\"parent\":%d,\"request\":%llu,"
                   "\"self_ns\":%lld}\n",
                   t, i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(self.self_ns[i]));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace mweaver::perfbench

#endif  // MWEAVER_PERFBENCH_SPANS_H_
