// Mapping-session benchmark: end-to-end and per-layer numbers for the
// interactive mapping service, one workload per run.
//
//   mapping_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <path>]
//
// A run builds the source database, publishes it, materializes the goal
// rows of the Yahoo mapping tasks and draws every session, keystroke and
// write batch from --seed before the first timed request. It then drives
// the library through its public functions only, checks that every session
// converged on its task's goal mapping, and prints one JSON result object
// as the last line of standard output.
//
// --trace 0 reports the end-to-end metrics (what a user of the service
// sees). --trace 1 replays the same seeded inputs three times: untraced
// through the service (the overhead baseline), traced through the service
// (spans around MappingService calls), and traced directly below the
// service (spans around Catalog::Pin, Session::Input, SampleSearch and its
// stages, PruneByAttribute, the structure-pruning pass and each of its
// PathExecutor::HasSupport calls, FullTextEngine::FindOccurrences and
// TenantWriter::Apply). It reports the per-layer metrics computed from those
// spans and writes the spans to --spans.
//
// perfbench/README.md describes the workloads and which end-to-end metric
// each per-layer metric is expected to move.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant_writer.h"
#include "common/random.h"
#include "core/execution_context.h"
#include "core/pruning.h"
#include "core/sample_search.h"
#include "core/session.h"
#include "datagen/movie_gen.h"
#include "datagen/workload.h"
#include "query/executor.h"
#include "service/mapping_service.h"
#include "spans.h"

// Process-wide heap-allocation counter (the bench_table3_search idiom). The
// traced run samples it around each SampleSearch, on a thread where no other
// benchmark thread is allocating, for core.heap_allocs_per_search.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mweaver::perfbench {
namespace {

// ------------------------------------------------------------- workloads --

struct WorkloadConfig {
  const char* name;
  /// Movies in the Yahoo-like source (the dataset itself is fixed; the seed
  /// draws sessions and write batches).
  size_t movies;
  /// Tenants publishing that source.
  size_t tenants;
  /// Only the 5- and 6-column tasks.
  bool wide_only;
  /// Closed-loop clients; 0 = open loop at `session_rate`.
  size_t clients;
  double session_rate;
  /// First rows come from this many popular goal rows per tenant, Zipf
  /// drawn (0 = uniform over every goal row of the task).
  size_t popular_rows_per_tenant;
  /// Per-keystroke budget (0 = none).
  int deadline_ms;
  /// The write phase on tenant 0 after the reads: write_phase_ops
  /// operations, update batches at write_rate per second, then one
  /// republish per publish_every operations, back to back.
  double write_rate;
  size_t publish_every;
  size_t write_phase_ops;
  /// Session plans drawn per closed-loop client (replayed round robin).
  size_t plans_per_client;
  /// Tail percentile reported for searches and pruning passes: the
  /// highest one with at least ten samples beyond it in each of the
  /// kRounds rounds at this workload's sample counts.
  double search_tail, prune_tail;
  /// Source set-ups timed per run; setup_s is their median.
  size_t setups;
};

// The open-loop rate of popular-rows is about a third of the closed-loop
// capacity measured on its inputs (README.md).
constexpr WorkloadConfig kWorkloads[] = {
    {.name = "cold-sessions", .movies = 2000, .tenants = 1, .wide_only = false,
     .clients = 4, .session_rate = 0.0, .popular_rows_per_tenant = 0,
     .deadline_ms = 0, .write_rate = 80.0, .publish_every = 29,
     .write_phase_ops = 207, .plans_per_client = 4000, .search_tail = 0.98,
     .prune_tail = 0.99, .setups = 5},
    {.name = "wide-sessions", .movies = 6000, .tenants = 1, .wide_only = true,
     .clients = 4, .session_rate = 0.0, .popular_rows_per_tenant = 0,
     .deadline_ms = 500, .write_rate = 40.0, .publish_every = 22,
     .write_phase_ops = 157, .plans_per_client = 1000, .search_tail = 0.95,
     .prune_tail = 0.99, .setups = 3},
    {.name = "popular-rows", .movies = 150, .tenants = 4, .wide_only = false,
     .clients = 0, .session_rate = 1000.0, .popular_rows_per_tenant = 30,
     .deadline_ms = 500, .write_rate = 150.0, .publish_every = 29,
     .write_phase_ops = 207, .plans_per_client = 0, .search_tail = 0.99,
     .prune_tail = 0.99, .setups = 5},
};

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

constexpr size_t kGoalRowsPerTask = 300;
/// The read phase is cut into this many equal rounds; each read metric is
/// the median of its per-round values, so a stall of the machine that
/// spoils one round does not move the result.
constexpr size_t kRounds = 5;
/// Skew of the popular first rows: rank r is drawn with weight
/// 1/(r+1)^kZipfTheta.
constexpr double kZipfTheta = 0.7;
constexpr uint64_t kPopularRowsSeed = 1;
constexpr size_t kPopularDrawsPerRow = 10;
constexpr size_t kRowsAppendedPerPublish = 4;
constexpr size_t kOwnedRowsBeforeDeletes = 8;
constexpr const char* kWriteRelation = "movie";
constexpr const char* kMovieIdAttribute = "mid";

// ----------------------------------------------------------------- stats --

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Nearest-rank percentile, q in (0, 1]; 0 for no samples.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string PercentName(double q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

/// Ordered metric list; printed as "name value unit" lines plus the final
/// JSON object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit, note});
  }

  void PrintLines() const {
    for (const Entry& e : entries_) {
      std::printf("  %-42s %14.6f %-6s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.note.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    std::isfinite(entries_[i].value) ? entries_[i].value : 0.0,
                    entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

  bool AllFinite() const {
    return std::all_of(entries_.begin(), entries_.end(),
                       [](const Entry& e) { return std::isfinite(e.value); });
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

std::string CountNote(size_t n, double q) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(n=%zu, %s)", n, PercentName(q).c_str());
  return buf;
}

/// Peak resident set (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- inputs --

struct Keystroke {
  uint16_t row = 0;
  uint16_t col = 0;
  const std::string* value = nullptr;
};

/// Every order of m columns, m = 1..kMaxColumns; a session row stores the
/// index of the order its cells are typed in.
constexpr size_t kMaxColumns = 6;

const std::vector<std::vector<uint8_t>>& ColumnOrders(size_t m) {
  static const std::vector<std::vector<std::vector<uint8_t>>> kOrders = [] {
    std::vector<std::vector<std::vector<uint8_t>>> all(kMaxColumns + 1);
    for (size_t n = 1; n <= kMaxColumns; ++n) {
      std::vector<uint8_t> order;
      for (size_t c = 0; c < n; ++c) order.push_back(static_cast<uint8_t>(c));
      do {
        all[n].push_back(order);
      } while (std::next_permutation(order.begin(), order.end()));
    }
    return all;
  }();
  return kOrders[m];
}

/// One design session: the first row (its last keystroke fires the
/// search), then distinct goal rows until the session converges.
struct SessionPlan {
  uint32_t tenant = 0;
  uint32_t task = 0;
  uint16_t columns = 0;
  /// Goal-row index and column-order index of each typed row.
  std::vector<uint16_t> rows;
  std::vector<uint16_t> orders;

  size_t num_keys() const { return rows.size() * columns; }
  /// Index of the keystroke that completes row 0.
  size_t search_key() const { return columns - 1u; }
};

/// One scheduled write: an update batch inserting new movie rows (and
/// deleting the writer's oldest own row once it owns enough), or a
/// republish of the writer's database.
struct WriteOp {
  bool publish = false;
  std::vector<storage::Row> inserts;
};

/// A first row the service's result cache holds for the whole run.
struct PopularRow {
  uint32_t tenant = 0;
  uint32_t task = 0;
  size_t row = 0;
};

/// Everything a run needs, built before the first timed request.
struct World {
  storage::Database source;
  std::unique_ptr<catalog::Catalog> catalog;
  std::vector<std::string> tenants;
  std::vector<datagen::TaskMapping> tasks;
  std::vector<std::string> goal_canonical;
  std::vector<std::vector<std::vector<std::string>>> goal_rows;
  /// Closed loop: one list per client. Open loop: one list in arrival
  /// order. The traced direct replay uses list 0, its text probes the last.
  std::vector<std::vector<SessionPlan>> plans;
  /// Open loop only: the popular first rows, and how many drawn rows were
  /// passed over because their search does not finish within the budget.
  std::vector<PopularRow> popular;
  size_t uncacheable_rows = 0;
  std::vector<WriteOp> write_ops;
  /// Republish inputs, consumed in order: the source with
  /// kRowsAppendedPerPublish new movies appended.
  std::deque<storage::Database> publish_dbs;
  storage::RelationId write_rel = storage::kInvalidRelation;
  double generate_s = 0.0;
};

core::SearchOptions SessionOptions() {
  core::SearchOptions options;
  options.num_threads = 1;
  return options;
}

Keystroke KeyOf(const World& w, const SessionPlan& plan, size_t k) {
  const size_t r = k / plan.columns;
  const uint8_t col =
      ColumnOrders(plan.columns)[plan.orders[r]][k % plan.columns];
  return Keystroke{static_cast<uint16_t>(r), col,
                   &w.goal_rows[plan.task][plan.rows[r]][col]};
}

/// The first row, then every other goal row of the task in a seeded order
/// (a user copying rows from the goal instance types each one once), each
/// row's cells in a seeded column order.
SessionPlan DrawSession(const World& w, uint32_t tenant, uint32_t task,
                        size_t first_row, Rng& rng) {
  const size_t num_rows = w.goal_rows[task].size();
  SessionPlan plan;
  plan.tenant = tenant;
  plan.task = task;
  plan.columns = static_cast<uint16_t>(w.tasks[task].column_names.size());
  plan.rows.reserve(num_rows);
  plan.rows.push_back(static_cast<uint16_t>(first_row));
  for (size_t r = 0; r < num_rows; ++r) {
    if (r != first_row) plan.rows.push_back(static_cast<uint16_t>(r));
  }
  for (size_t r = 1; r + 1 < plan.rows.size(); ++r) {
    std::swap(plan.rows[r],
              plan.rows[r + rng.Index(plan.rows.size() - r)]);
  }
  const size_t num_orders = ColumnOrders(plan.columns).size();
  plan.orders.resize(plan.rows.size());
  for (uint16_t& order : plan.orders) {
    order = static_cast<uint16_t>(rng.Index(num_orders));
  }
  return plan;
}

Status BuildWorld(const WorkloadConfig& cfg, uint64_t seed, double seconds,
                  World* w) {
  const Clock::time_point gen_start = Clock::now();
  datagen::YahooMoviesConfig source_config;
  source_config.num_movies = cfg.movies;
  w->source = datagen::MakeYahooMovies(source_config);
  w->generate_s = MsSince(gen_start, Clock::now()) / 1e3;

  w->catalog = std::make_unique<catalog::Catalog>();
  for (size_t t = 0; t < cfg.tenants; ++t) {
    w->tenants.push_back("tenant-" + std::to_string(t));
    MW_RETURN_NOT_OK(
        w->catalog->Publish(w->tenants.back(), w->source.CloneCow({}))
            .status());
  }

  MW_ASSIGN_OR_RETURN(std::vector<datagen::TaskSet> sets,
                      datagen::MakeYahooTaskSets(w->source));
  MW_ASSIGN_OR_RETURN(catalog::SnapshotPtr snap,
                      w->catalog->Pin(w->tenants.front()));
  query::PathExecutor executor(&snap->engine());
  for (datagen::TaskSet& set : sets) {
    for (datagen::TaskMapping& task : set.tasks) {
      if (cfg.wide_only && task.column_names.size() < 5) continue;
      MW_ASSIGN_OR_RETURN(auto target,
                          executor.EvaluateTarget(task.mapping,
                                                  kGoalRowsPerTask));
      std::vector<std::vector<std::string>> rows;
      for (auto& row : target) {
        if (std::none_of(row.begin(), row.end(),
                         [](const std::string& v) { return v.empty(); })) {
          rows.push_back(std::move(row));
        }
      }
      if (rows.empty()) {
        return Status::FailedPrecondition("task " + task.name +
                                          " has no complete goal row");
      }
      w->goal_canonical.push_back(task.mapping.Canonical());
      w->goal_rows.push_back(std::move(rows));
      w->tasks.push_back(std::move(task));
    }
  }

  Rng rng(seed);
  const uint32_t num_tasks = static_cast<uint32_t>(w->tasks.size());
  if (cfg.clients > 0) {
    w->plans.resize(cfg.clients);
    for (auto& list : w->plans) {
      for (size_t i = 0; i < cfg.plans_per_client; ++i) {
        const uint32_t task = static_cast<uint32_t>(rng.Index(num_tasks));
        list.push_back(DrawSession(*w, 0, task,
                                   rng.Index(w->goal_rows[task].size()), rng));
      }
    }
  } else {
    // Popular first rows: a fixed list per tenant, Zipf drawn. Like the
    // source, the list belongs to the dataset, so it does not change with
    // the seed; the seed draws the traffic over it. Only rows the result
    // cache can hold qualify: a search cut off by the deadline is never
    // cached, so such a row cannot be served from the cache.
    Rng popular_rng(kPopularRowsSeed);
    std::vector<std::vector<PopularRow>> popular(cfg.tenants);
    for (uint32_t t = 0; t < cfg.tenants; ++t) {
      MW_ASSIGN_OR_RETURN(catalog::SnapshotPtr tenant_snap,
                          w->catalog->Pin(w->tenants[t]));
      for (size_t i = 0; popular[t].size() < cfg.popular_rows_per_tenant;
           ++i) {
        if (i >= kPopularDrawsPerRow * cfg.popular_rows_per_tenant) {
          return Status::FailedPrecondition(
              "too few goal rows finish their search within the budget");
        }
        const uint32_t task = static_cast<uint32_t>(i % num_tasks);
        const size_t row = popular_rng.Index(w->goal_rows[task].size());
        core::ExecutionContext ctx;
        ctx.set_deadline(core::SearchClock::now() +
                         std::chrono::milliseconds(cfg.deadline_ms));
        Result<core::SearchResult> searched = core::SampleSearch(
            tenant_snap->engine(), tenant_snap->graph(),
            w->goal_rows[task][row], SessionOptions(), ctx);
        if (searched.ok() && !searched->stats.truncated) {
          popular[t].push_back(PopularRow{t, task, row});
        } else {
          ++w->uncacheable_rows;
        }
      }
      popular_rng.Shuffle(&popular[t]);
      w->popular.insert(w->popular.end(), popular[t].begin(),
                        popular[t].end());
    }
    const size_t arrivals =
        static_cast<size_t>(std::ceil(cfg.session_rate * seconds)) + 1;
    // List 0 feeds the service phases; the smaller list 1 only supplies
    // first rows for the text-layer probes of the traced run.
    w->plans.resize(2);
    for (size_t l = 0; l < 2; ++l) {
      for (size_t i = 0; i < (l == 0 ? arrivals : arrivals / 8); ++i) {
        const uint32_t tenant = static_cast<uint32_t>(rng.Index(cfg.tenants));
        const PopularRow& p =
            popular[tenant][rng.ZipfIndex(popular[tenant].size(), kZipfTheta)];
        w->plans[l].push_back(DrawSession(*w, tenant, p.task, p.row, rng));
      }
    }
  }

  // Write schedule, enough for every phase of the run.
  w->write_rel = w->source.FindRelation(kWriteRelation);
  if (w->write_rel == storage::kInvalidRelation) {
    return Status::NotFound("no movie relation in the source");
  }
  // New movies: rows of a second generated source of the same size, each
  // given a movie id no existing row has. Link tables join movies by id,
  // so a reused id would make the new movie a second copy of an existing
  // one rather than a new movie.
  datagen::YahooMoviesConfig new_movies_config = source_config;
  new_movies_config.seed = source_config.seed + 1;
  const storage::Database new_source =
      datagen::MakeYahooMovies(new_movies_config);
  const storage::Relation& new_movies =
      new_source.relation(new_source.FindRelation(kWriteRelation));
  const storage::Relation& movies = w->source.relation(w->write_rel);
  const storage::AttributeId id_attr =
      movies.schema().FindAttribute(kMovieIdAttribute);
  if (id_attr == storage::kInvalidAttribute) {
    return Status::NotFound("no movie id attribute in the source");
  }
  int64_t next_id = 0;
  for (size_t r = 0; r < movies.num_rows(); ++r) {
    const storage::Value& id = movies.row(static_cast<storage::RowId>(r))
                                   [static_cast<size_t>(id_attr)];
    if (id.type() == storage::ValueType::kInt64) {
      next_id = std::max(next_id, id.AsInt64() + 1);
    }
  }
  if (next_id == 0) {
    return Status::FailedPrecondition("movie ids are not integers");
  }
  auto new_movie = [&] {
    storage::Row row = new_movies.row(
        static_cast<storage::RowId>(rng.Index(new_movies.num_rows())));
    row[static_cast<size_t>(id_attr)] = storage::Value(next_id++);
    return row;
  };
  const size_t republishes = cfg.write_phase_ops / cfg.publish_every;
  for (size_t i = 0; i < cfg.write_phase_ops; ++i) {
    WriteOp op;
    op.publish = i >= cfg.write_phase_ops - republishes;
    if (op.publish) {
      storage::Database db = w->source.CloneCow({w->write_rel});
      for (size_t n = 0; n < kRowsAppendedPerPublish; ++n) {
        db.mutable_relation(w->write_rel)->AppendUnchecked(new_movie());
      }
      w->publish_dbs.push_back(std::move(db));
    } else {
      op.inserts.push_back(new_movie());
    }
    w->write_ops.push_back(std::move(op));
  }
  return Status::OK();
}

// -------------------------------------------------------------- recording --

/// Samples and counts of one phase; merged across client threads.
struct Recorder {
  /// Start of the read phase; search, prune and converged-session samples
  /// carry their completion time since it (seconds, parallel vectors).
  Clock::time_point start{};
  std::vector<double> search_ms, prune_ms, update_ms, publish_ms;
  std::vector<float> search_at, prune_at, converged_at;
  std::vector<double> service_ms, handoff_ms, session_open_ms, lateness_ms;
  uint64_t sessions_ok = 0, sessions_wrong = 0;
  uint64_t writes_ok = 0, writes_failed = 0;
  uint64_t deadline_hits = 0, untagged_deadline_hits = 0, overloaded = 0;
  uint64_t shards_touched = 0, relations_compacted = 0, shards_rebuilt = 0;

  void Merge(const Recorder& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(search_ms, o.search_ms);
    cat(prune_ms, o.prune_ms);
    search_at.insert(search_at.end(), o.search_at.begin(), o.search_at.end());
    prune_at.insert(prune_at.end(), o.prune_at.begin(), o.prune_at.end());
    converged_at.insert(converged_at.end(), o.converged_at.begin(),
                        o.converged_at.end());
    cat(update_ms, o.update_ms);
    cat(publish_ms, o.publish_ms);
    cat(service_ms, o.service_ms);
    cat(handoff_ms, o.handoff_ms);
    cat(session_open_ms, o.session_open_ms);
    cat(lateness_ms, o.lateness_ms);
    sessions_ok += o.sessions_ok;
    sessions_wrong += o.sessions_wrong;
    writes_ok += o.writes_ok;
    writes_failed += o.writes_failed;
    deadline_hits += o.deadline_hits;
    untagged_deadline_hits += o.untagged_deadline_hits;
    overloaded += o.overloaded;
    shards_touched += o.shards_touched;
    relations_compacted += o.relations_compacted;
    shards_rebuilt += o.shards_rebuilt;
  }
};

// ------------------------------------------------------------- the writer --

/// Runs the write phase on a fixed schedule (open loop), timing each update
/// from its due time. Through the service when `service` is
/// set, otherwise directly through TenantWriter and Catalog::Publish. The
/// writer owns both kinds of write, so the ids of its own rows stay
/// coherent: a republish replaces them with the rows it appended.
void RunWriter(World& w, const std::string& tenant, double rate,
               service::MappingService* service, SpanLog* log,
               Recorder* rec) {
  catalog::TenantWriter writer(w.catalog.get());
  std::deque<storage::RowId> owned;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < w.write_ops.size(); ++k) {
    const Clock::time_point due = start + period * static_cast<int64_t>(k);
    std::this_thread::sleep_until(due);
    const WriteOp& op = w.write_ops[k];
    // Republishes may run back to back past their schedule; the lateness
    // of the generator is that of its update batches.
    if (!op.publish) rec->lateness_ms.push_back(MsSince(due, Clock::now()));
    const uint64_t request = k;
    if (op.publish) {
      storage::Database db = std::move(w.publish_dbs.front());
      w.publish_dbs.pop_front();
      const size_t rows = db.relation(w.write_rel).num_rows();
      // A republish is timed from its call, not its due time: the write
      // phase issues its republishes back to back.
      const Clock::time_point publish_start = Clock::now();
      Result<catalog::SnapshotPtr> published = [&] {
        ScopedSpan span(log, "catalog.publish", request);
        return w.catalog->Publish(tenant, std::move(db));
      }();
      const double ms = MsSince(publish_start, Clock::now());
      if (!published.ok()) {
        ++rec->writes_failed;
        continue;
      }
      ++rec->writes_ok;
      rec->publish_ms.push_back(ms);
      owned.clear();
      for (size_t i = kRowsAppendedPerPublish; i > 0; --i) {
        owned.push_back(static_cast<storage::RowId>(rows - i));
      }
      for (const catalog::TenantInfo& info : w.catalog->ListTenants()) {
        if (info.name == tenant) {
          rec->shards_rebuilt += info.shards_rebuilt_last;
        }
      }
      continue;
    }
    catalog::UpdateBatch batch;
    for (const storage::Row& row : op.inserts) {
      batch.inserts.push_back(catalog::RowInsert{kWriteRelation, row});
    }
    const bool deletes = owned.size() >= kOwnedRowsBeforeDeletes;
    if (deletes) {
      batch.deletes.push_back(catalog::RowDelete{kWriteRelation,
                                                 owned.front()});
    }
    std::vector<storage::RowId> inserted;
    bool ok = false;
    if (service != nullptr) {
      service::UpdateRequest request_msg{tenant, std::move(batch), {}};
      service::RequestResult result = [&] {
        ScopedSpan span(log, "service.apply_update", request);
        return service->ApplyUpdate(std::move(request_msg));
      }();
      ok = result.status.ok();
      if (result.outcome == service::RequestOutcome::kOverloaded) {
        ++rec->overloaded;
      }
      inserted = std::move(result.inserted_rows);
    } else {
      Result<catalog::UpdateResult> result = [&] {
        ScopedSpan span(log, "catalog.apply", request);
        return writer.Apply(tenant, batch);
      }();
      ok = result.ok();
      if (ok) {
        rec->shards_touched += result->shards_touched;
        rec->relations_compacted += result->relations_compacted;
        inserted = std::move(result->inserted_rows);
      }
    }
    const double ms = MsSince(due, Clock::now());
    if (!ok) {
      ++rec->writes_failed;
      continue;
    }
    ++rec->writes_ok;
    rec->update_ms.push_back(ms);
    if (deletes) owned.pop_front();
    owned.insert(owned.end(), inserted.begin(), inserted.end());
  }
}

// ------------------------------------------------- sessions via the service --

struct ServiceRun {
  Recorder rec;
  /// Untimed result-cache priming before the first timed request.
  double prime_s = 0.0;
  service::MetricsSnapshot metrics;
  uint64_t cache_hits = 0, cache_misses = 0;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

/// Files one keystroke's latency and checks the session state after it.
/// Returns true when the session is over (converged, dead or failed). `mu`,
/// when set, guards `rec`; the convergence check runs outside it.
bool RecordKeystroke(const WorkloadConfig& cfg, const World& w,
                     service::MappingService& svc, const SessionPlan& plan,
                     service::SessionId id, size_t key_index, double client_ms,
                     const service::RequestResult& r, std::mutex* mu,
                     Recorder* rec, bool* converged_to_goal) {
  const bool over = !r.status.ok() ||
                    r.state == core::SessionState::kConverged ||
                    r.state == core::SessionState::kNoMapping;
  if (r.status.ok() && r.state == core::SessionState::kConverged) {
    const Status checked = svc.sessions().WithSession(
        id, [&](core::Session& session) {
          *converged_to_goal = session.best().mapping.Canonical() ==
                               w.goal_canonical[plan.task];
          return Status::OK();
        });
    if (!checked.ok()) *converged_to_goal = false;
  }
  std::unique_lock<std::mutex> lock;
  if (mu != nullptr) lock = std::unique_lock<std::mutex>(*mu);
  const auto at = static_cast<float>(MsSince(rec->start, Clock::now()) / 1e3);
  if (key_index == plan.search_key()) {
    rec->search_ms.push_back(client_ms);
    rec->search_at.push_back(at);
  } else if (KeyOf(w, plan, key_index).row > 0) {
    rec->prune_ms.push_back(client_ms);
    rec->prune_at.push_back(at);
  }
  rec->service_ms.push_back(r.latency_ms);
  rec->handoff_ms.push_back(std::max(0.0, client_ms - r.latency_ms));
  // Client-side deadline accounting: a keystroke whose latency reached its
  // budget hit the deadline, whatever the service reported.
  if (cfg.deadline_ms > 0 && client_ms >= cfg.deadline_ms) {
    ++rec->deadline_hits;
    if (r.outcome == service::RequestOutcome::kOk && !r.truncated) {
      ++rec->untagged_deadline_hits;
    }
  }
  if (r.outcome == service::RequestOutcome::kOverloaded) ++rec->overloaded;
  if (*converged_to_goal) rec->converged_at.push_back(at);
  return over;
}

std::chrono::milliseconds Budget(const WorkloadConfig& cfg) {
  return std::chrono::milliseconds(cfg.deadline_ms);
}

void RunClosedClient(const WorkloadConfig& cfg, const World& w,
                     service::MappingService& svc,
                     const std::vector<SessionPlan>& plans,
                     Clock::time_point stop, uint64_t request_base,
                     SpanLog* log, Recorder* rec) {
  for (size_t i = 0; Clock::now() < stop; ++i) {
    const SessionPlan& plan = plans[i % plans.size()];
    const uint64_t request = request_base + i;
    const Clock::time_point open_start = Clock::now();
    Result<service::SessionId> id = [&] {
      ScopedSpan span(log, "service.create_session", request);
      return svc.CreateSession(w.tenants[plan.tenant],
                               w.tasks[plan.task].column_names,
                               SessionOptions());
    }();
    double open_ms = MsSince(open_start, Clock::now());
    if (!id.ok()) {
      ++rec->sessions_wrong;
      continue;
    }
    bool good = false;
    for (size_t k = 0; k < plan.num_keys(); ++k) {
      const Keystroke key = KeyOf(w, plan, k);
      const Clock::time_point start = Clock::now();
      service::RequestResult r = [&] {
        ScopedSpan span(log, "service.call", request);
        return svc.Call(service::InputRequest{*id, key.row, key.col,
                                              *key.value, Budget(cfg)});
      }();
      const double ms = MsSince(start, Clock::now());
      if (RecordKeystroke(cfg, w, svc, plan, *id, k, ms, r, nullptr, rec,
                          &good)) {
        break;
      }
    }
    const Clock::time_point close_start = Clock::now();
    {
      ScopedSpan span(log, "service.close_session", request);
      (void)svc.CloseSession(*id);
    }
    open_ms += MsSince(close_start, Clock::now());
    rec->session_open_ms.push_back(open_ms);
    ++(good ? rec->sessions_ok : rec->sessions_wrong);
  }
}

/// Open loop, driven from one thread: sessions arrive on a fixed schedule
/// and each keystroke's completion callback enqueues the next keystroke.
/// Latency runs from each keystroke's due time: the arrival time for the
/// first keystroke, the previous keystroke's completion for the rest.
class OpenLoop {
 public:
  OpenLoop(const WorkloadConfig& cfg, const World& w,
           service::MappingService& svc, const std::vector<SessionPlan>& plans,
           SpanLog* log)
      : cfg_(cfg), w_(w), svc_(svc), plans_(plans), log_(log) {}

  void Run(Clock::time_point start, Clock::time_point stop) {
    rec_.start = start;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / cfg_.session_rate));
    for (size_t i = 0; i < plans_.size(); ++i) {
      const Clock::time_point due = start + period * static_cast<int64_t>(i);
      if (due >= stop) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      auto state = std::make_shared<Flight>();
      state->plan = &plans_[i];
      state->request = i;
      Result<service::SessionId> id = svc_.CreateSession(
          w_.tenants[state->plan->tenant],
          w_.tasks[state->plan->task].column_names, SessionOptions());
      const Clock::time_point created = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        rec_.lateness_ms.push_back(MsSince(due, now));
        if (!id.ok()) {
          ++rec_.sessions_wrong;
          continue;
        }
        ++in_flight_;
      }
      state->open_ms = MsSince(now, created);
      state->id = *id;
      Send(std::move(state), due);
    }
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [&] { return in_flight_ == 0; });
  }

  Recorder& recorder() { return rec_; }

 private:
  struct Flight {
    const SessionPlan* plan = nullptr;
    uint64_t request = 0;
    service::SessionId id = 0;
    size_t next = 0;
    double open_ms = 0.0;
  };

  void Send(std::shared_ptr<Flight> state, Clock::time_point due) {
    const Keystroke key = KeyOf(w_, *state->plan, state->next);
    service::InputRequest request{state->id, key.row, key.col, *key.value,
                                  Budget(cfg_)};
    const Status admitted = svc_.Enqueue(
        std::move(request), [this, state, due](service::RequestResult r) {
          OnDone(state, due, std::move(r));
        });
    if (!admitted.ok()) {
      service::RequestResult refused;
      refused.status = admitted;
      refused.outcome = service::RequestOutcome::kOverloaded;
      OnDone(state, due, std::move(refused));
    }
  }

  void OnDone(std::shared_ptr<Flight> state, Clock::time_point due,
              service::RequestResult r) {
    const Clock::time_point now = Clock::now();
    const double ms = MsSince(due, now);
    if (log_ != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      log_->AddChild("service.enqueue", ToNs(due), ToNs(now), state->request);
    }
    bool good = false;
    const bool over = RecordKeystroke(cfg_, w_, svc_, *state->plan, state->id,
                                      state->next, ms, r, &mu_, &rec_, &good);
    ++state->next;
    if (!over && state->next < state->plan->num_keys()) {
      Send(std::move(state), now);
      return;
    }
    const Clock::time_point close_start = Clock::now();
    (void)svc_.CloseSession(state->id);
    const double close_ms = MsSince(close_start, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    rec_.session_open_ms.push_back(state->open_ms + close_ms);
    ++(good ? rec_.sessions_ok : rec_.sessions_wrong);
    if (--in_flight_ == 0) idle_.notify_all();
  }

  const WorkloadConfig& cfg_;
  const World& w_;
  service::MappingService& svc_;
  const std::vector<SessionPlan>& plans_;
  SpanLog* log_;

  std::mutex mu_;
  std::condition_variable idle_;
  size_t in_flight_ = 0;
  Recorder rec_;
};

/// One phase of reads through a fresh MappingService, followed by the
/// write phase when `writes` is set.
ServiceRun RunServicePhase(const WorkloadConfig& cfg, World& w, double seconds,
                           bool writes, bool traced) {
  ServiceRun run;
  service::ServiceOptions options;
  options.num_workers = 4;
  options.search_parallelism = 1;
  service::MappingService svc(w.catalog.get(), options);
  auto new_log = [&]() -> SpanLog* {
    if (!traced) return nullptr;
    run.logs.push_back(std::make_unique<SpanLog>());
    return run.logs.back().get();
  };

  // The popular rows are cached in steady state: type each one's first row
  // once before timing, so the run measures hits rather than the warm-up.
  const Clock::time_point prime_start = Clock::now();
  for (const PopularRow& p : w.popular) {
    const datagen::TaskMapping& task = w.tasks[p.task];
    Result<service::SessionId> id = svc.CreateSession(
        w.tenants[p.tenant], task.column_names, SessionOptions());
    if (!id.ok()) continue;
    for (size_t c = 0; c < task.column_names.size(); ++c) {
      (void)svc.Call(service::InputRequest{
          *id, 0, c, w.goal_rows[p.task][p.row][c], Budget(cfg)});
    }
    (void)svc.CloseSession(*id);
  }
  run.prime_s = MsSince(prime_start, Clock::now()) / 1e3;

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  if (cfg.clients > 0) {
    std::vector<Recorder> recs(cfg.clients);
    for (Recorder& r : recs) r.start = start;
    std::vector<SpanLog*> logs;
    for (size_t c = 0; c < cfg.clients; ++c) logs.push_back(new_log());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < cfg.clients; ++c) {
      threads.emplace_back([&, c] {
        RunClosedClient(cfg, w, svc, w.plans[c], stop,
                        static_cast<uint64_t>(c) << 32, logs[c], &recs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Recorder& r : recs) run.rec.Merge(r);
  } else {
    OpenLoop loop(cfg, w, svc, w.plans.front(), new_log());
    loop.Run(start, stop);
    run.rec.Merge(loop.recorder());
  }
  run.metrics = svc.SnapshotMetrics();
  run.cache_hits = svc.cache().hits();
  run.cache_misses = svc.cache().misses();

  if (writes) {
    Recorder recorded;
    RunWriter(w, w.tenants.front(), cfg.write_rate, &svc, new_log(),
              &recorded);
    run.rec.Merge(recorded);
  }
  return run;
}

// ------------------------------------------ direct replay below the service --

struct DirectRun {
  Recorder rec;
  std::vector<std::unique_ptr<SpanLog>> logs;
  /// Funnel and allocation counters summed over the replay's searches.
  uint64_t searches = 0, heap_allocs = 0, arena_bytes = 0;
  uint64_t occurrences = 0, pairwise_mappings = 0, pairwise_valid = 0;
  uint64_t tuple_paths_woven = 0, valid_mappings = 0;
  uint64_t weave_attempts = 0, weave_successes = 0;
  uint64_t text_probes = 0, text_candidates = 0;
  uint64_t prunes = 0, prune_candidates_in = 0, prune_removed = 0;
};

/// Replays session plans on one thread, calling the core, query and text
/// layers directly. The first row goes through core::Session::Input with a
/// search function that wraps core::SampleSearch; each pruning keystroke
/// runs core::PruneByAttribute and then the structure pass, one span per
/// PathExecutor::HasSupport call (PruneByStructure's per-candidate rule,
/// unrolled so the query layer's time is attributable).
void RunDirectReader(const WorkloadConfig& cfg, World& w,
                     const std::vector<SessionPlan>& plans,
                     Clock::time_point stop, SpanLog* log, DirectRun* out) {
  const auto budget = std::chrono::milliseconds(cfg.deadline_ms);
  for (size_t i = 0; Clock::now() < stop && i < plans.size(); ++i) {
    const SessionPlan& plan = plans[i];
    const uint64_t request = i;
    Result<catalog::SnapshotPtr> snap = [&] {
      ScopedSpan span(log, "catalog.pin", request);
      return w.catalog->Pin(w.tenants[plan.tenant]);
    }();
    if (!snap.ok()) {
      ++out->rec.sessions_wrong;
      continue;
    }
    const catalog::Snapshot& s = **snap;
    core::Session session(&s.engine(), &s.graph(),
                          w.tasks[plan.task].column_names, SessionOptions());
    session.set_search_fn([&](const std::vector<std::string>& row,
                              const core::SearchOptions& options,
                              core::ExecutionContext& ctx)
                              -> Result<core::SearchResult> {
      ScopedSpan span(log, "core.search", request);
      const int64_t start_ns = NowNs();
      const uint64_t allocs_before =
          g_heap_allocs.load(std::memory_order_relaxed);
      Result<core::SearchResult> result =
          core::SampleSearch(s.engine(), s.graph(), row, options, ctx);
      out->heap_allocs +=
          g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
      if (!result.ok()) return result;
      const core::SearchStats& st = result->stats;
      // Stage spans rebuilt from the returned trace, laid end to end from
      // the call's start (the stages run one after another).
      static constexpr std::pair<core::SearchStage, const char*> kStages[] = {
          {core::SearchStage::kLocate, "core.locate"},
          {core::SearchStage::kPairwiseGen, "core.pairwise_gen"},
          {core::SearchStage::kPairwiseExec, "core.pairwise_exec"},
          {core::SearchStage::kWeave, "core.weave"},
          {core::SearchStage::kRank, "core.rank"}};
      int64_t at = start_ns;
      for (const auto& [stage, name] : kStages) {
        const auto ns =
            static_cast<int64_t>(st.trace.stage(stage).wall_ms * 1e6);
        log->AddChild(name, at, at + ns, request);
        at += ns;
      }
      ++out->searches;
      out->arena_bytes += st.trace.arena_bytes_used;
      out->occurrences += st.num_occurrences;
      out->pairwise_mappings += st.pairwise.num_mappings;
      out->pairwise_valid += st.pairwise.num_valid_mappings;
      out->tuple_paths_woven += st.weave.total_tuple_paths;
      out->valid_mappings += st.num_valid_mappings;
      out->weave_attempts += st.weave.weave_attempts;
      out->weave_successes += st.weave.weave_successes;
      out->text_probes += st.trace.text_probes.probes;
      out->text_candidates += st.trace.text_probes.candidates_examined;
      return result;
    });

    std::vector<core::CandidateMapping> candidates;
    core::ExecutionContext ctx;
    query::PathExecutor executor(&s.engine());
    std::vector<std::string> grid_row;
    uint16_t grid_row_index = 0;
    bool good = false;
    bool over = false;
    for (size_t k = 0; k < plan.num_keys() && !over; ++k) {
      const Keystroke key = KeyOf(w, plan, k);
      ScopedSpan keystroke(log, "workload.keystroke", request);
      if (key.row == 0) {
        if (cfg.deadline_ms > 0) {
          session.context().set_deadline(core::SearchClock::now() + budget);
        }
        Status input = [&] {
          ScopedSpan span(log, "core.input", request);
          return session.Input(key.row, key.col, *key.value);
        }();
        if (!input.ok()) break;
        if (k == plan.search_key()) candidates = session.candidates();
      } else {
        if (key.row != grid_row_index) {
          grid_row_index = key.row;
          grid_row.assign(w.tasks[plan.task].column_names.size(),
                          std::string());
        }
        grid_row[key.col] = *key.value;
        ctx.ResetForSearch();
        if (cfg.deadline_ms > 0) {
          ctx.set_deadline(core::SearchClock::now() + budget);
        }
        ScopedSpan prune(log, "core.prune", request);
        const size_t before = candidates.size();
        {
          ScopedSpan span(log, "core.prune_by_attribute", request);
          core::PruneByAttribute(s.engine(), key.col, *key.value, &candidates,
                                 &ctx, 1);
        }
        query::SampleMap row_samples;
        for (size_t c = 0; c < grid_row.size(); ++c) {
          if (!grid_row[c].empty()) {
            row_samples.emplace(static_cast<int>(c), grid_row[c]);
          }
        }
        if (!candidates.empty() && row_samples.size() >= 2) {
          ScopedSpan span(log, "core.prune_by_structure", request);
          std::vector<core::CandidateMapping> kept;
          for (core::CandidateMapping& cand : candidates) {
            if (ctx.ShouldStop()) {
              kept.push_back(std::move(cand));
              continue;
            }
            Result<bool> supported = [&] {
              ScopedSpan call(log, "query.has_support", request);
              return executor.HasSupport(cand.mapping, row_samples, &ctx);
            }();
            if (!supported.ok()) {
              over = true;
              break;
            }
            if (*supported || ctx.stop_requested()) {
              kept.push_back(std::move(cand));
            }
          }
          candidates = std::move(kept);
        }
        ++out->prunes;
        out->prune_candidates_in += before;
        out->prune_removed += before - candidates.size();
      }
      if (k >= plan.search_key()) {
        if (candidates.size() == 1) {
          good = candidates.front().mapping.Canonical() ==
                 w.goal_canonical[plan.task];
          over = true;
        } else if (candidates.empty()) {
          over = true;
        }
      }
    }
    ++(good ? out->rec.sessions_ok : out->rec.sessions_wrong);
  }
}

/// The text layer alone: FullTextEngine::FindOccurrences for every sample
/// of the first rows of sessions the replay did not run, on the replay's
/// warm engine.
void RunTextProbes(World& w, const std::vector<SessionPlan>& plans,
                   size_t sessions, SpanLog* log) {
  for (size_t i = 0; i < std::min(sessions, plans.size()); ++i) {
    const SessionPlan& plan = plans[i];
    Result<catalog::SnapshotPtr> snap = w.catalog->Pin(w.tenants[plan.tenant]);
    if (!snap.ok()) continue;
    ScopedSpan row(log, "workload.first_row_probe", i);
    for (size_t k = 0; k <= plan.search_key(); ++k) {
      ScopedSpan span(log, "text.find_occurrences", i);
      (void)(*snap)->engine().FindOccurrences(*KeyOf(w, plan, k).value);
    }
  }
}

DirectRun RunDirectPhase(const WorkloadConfig& cfg, World& w,
                         double seconds) {
  DirectRun run;
  auto new_log = [&] {
    run.logs.push_back(std::make_unique<SpanLog>());
    return run.logs.back().get();
  };
  SpanLog* reader_log = new_log();
  SpanLog* writer_log = new_log();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  RunDirectReader(cfg, w, w.plans.front(), stop, reader_log, &run);
  Recorder writes;
  RunWriter(w, w.tenants.front(), cfg.write_rate, nullptr, writer_log,
            &writes);
  run.rec.Merge(writes);
  const size_t replayed = run.rec.sessions_ok + run.rec.sessions_wrong;
  RunTextProbes(w, w.plans.back(), replayed, new_log());
  return run;
}

// ----------------------------------------------------------------- report --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

/// Median over the kRounds rounds of [0, seconds) of the q-percentile of
/// the samples completed in each round; samples completed after the read
/// phase (a session finishing past its end) count in the last round.
double RoundMedian(const std::vector<double>& ms, const std::vector<float>& at,
                   double seconds, double q) {
  std::vector<std::vector<double>> rounds(kRounds);
  for (size_t i = 0; i < ms.size(); ++i) {
    const auto r = static_cast<size_t>(at[i] / seconds * kRounds);
    rounds[std::min(r, kRounds - 1)].push_back(ms[i]);
  }
  std::vector<double> values;
  for (const auto& round : rounds) values.push_back(Percentile(round, q));
  return Median(values);
}

std::string RoundNote(size_t n, double q) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(n=%zu, %s, median of %zu rounds)", n,
                PercentName(q).c_str(), kRounds);
  return buf;
}

void AddEndToEnd(const WorkloadConfig& cfg, const ServiceRun& run,
                 double seconds, double setup_s, MetricSet* m) {
  const Recorder& r = run.rec;
  m->Add("setup_s", setup_s + run.prime_s, "s",
         "(median of " + std::to_string(cfg.setups) +
             " set-ups, plus result-cache priming)");
  // Per round: converged sessions over the span from the round's first
  // completion to its last.
  std::vector<std::vector<float>> done(kRounds);
  for (float at : r.converged_at) {
    const auto round = static_cast<size_t>(at / seconds * kRounds);
    if (round < kRounds) done[round].push_back(at);
  }
  std::vector<double> per_round;
  for (auto& round : done) {
    std::sort(round.begin(), round.end());
    per_round.push_back(round.size() < 2 ? 0.0
                                         : (round.size() - 1) /
                                               (round.back() - round.front()));
  }
  m->Add("sessions_per_s", Median(per_round), "1/s",
         "(" + std::to_string(r.sessions_ok) +
             " converged sessions, median of " + std::to_string(kRounds) +
             " rounds)");
  m->Add("search_p50_ms", RoundMedian(r.search_ms, r.search_at, seconds, 0.5),
         "ms", RoundNote(r.search_ms.size(), 0.5));

  m->Add("prune_p50_ms", RoundMedian(r.prune_ms, r.prune_at, seconds, 0.5),
         "ms", RoundNote(r.prune_ms.size(), 0.5));

  m->Add("update_p50_ms", Median(r.update_ms), "ms",
         CountNote(r.update_ms.size(), 0.5));
  m->Add("publish_p50_ms", Median(r.publish_ms), "ms",
         CountNote(r.publish_ms.size(), 0.5));
  m->Add("peak_rss_mb", PeakRssMb(), "MiB");
  // The tails are printed, not reported as metrics: on a shared VM the
  // tail of sub-millisecond keystrokes follows the host's scheduling
  // noise, and varied several-fold between runs of the same inputs.
  std::printf("tails: search %.6f ms %s; prune %.6f ms %s\n",
              RoundMedian(r.search_ms, r.search_at, seconds, cfg.search_tail),
              RoundNote(r.search_ms.size(), cfg.search_tail).c_str(),
              RoundMedian(r.prune_ms, r.prune_at, seconds, cfg.prune_tail),
              RoundNote(r.prune_ms.size(), cfg.prune_tail).c_str());
}

/// Sum of self time per layer over the subtree rooted at `root`.
std::map<std::string, double> SubtreeSelfMs(const std::vector<Span>& spans,
                                            const SelfTimes& self,
                                            size_t root) {
  std::map<std::string, double> out;
  for (size_t i = root; i < spans.size(); ++i) {
    size_t at = i;
    bool inside = at == root;
    while (!inside && spans[at].parent >= 0) {
      at = static_cast<size_t>(spans[at].parent);
      inside = at == root;
    }
    if (i > root && !inside && spans[i].start_ns > spans[root].end_ns) break;
    if (inside) {
      out[LayerOf(spans[i].name)] += static_cast<double>(self.self_ns[i]) / 1e6;
    }
  }
  return out;
}

std::vector<double> DurationsMs(
    const std::vector<std::unique_ptr<SpanLog>>& logs, const char* name) {
  std::vector<double> out;
  for (const auto& log : logs) {
    for (const Span& s : log->spans()) {
      if (std::strcmp(s.name, name) == 0) out.push_back(s.ms());
    }
  }
  return out;
}

bool AddPerLayer(const World& w, const ServiceRun& untraced,
                 const ServiceRun& traced, const DirectRun& direct,
                 MetricSet* m) {
  const Recorder& sr = traced.rec;
  const service::MetricsSnapshot& sm = traced.metrics;
  // service
  m->Add("service.keystroke_p50_ms", Median(sr.service_ms), "ms");
  m->Add("service.keystroke_p99_ms", Percentile(sr.service_ms, 0.99), "ms");
  m->Add("service.handoff_ms", Median(sr.handoff_ms), "ms");
  m->Add("service.result_cache_hit_ratio",
         Ratio(traced.cache_hits, traced.cache_hits + traced.cache_misses),
         "ratio");
  m->Add("service.queue_high_water", sm.queue_high_water, "count");
  m->Add("service.overloaded", sr.overloaded, "count");
  m->Add("service.session_open_ms", Median(sr.session_open_ms), "ms");
  m->Add("service.deadline_hits", sr.deadline_hits, "count");
  m->Add("service.untagged_deadline_hits", sr.untagged_deadline_hits, "count");

  // catalog
  const Recorder& dr = direct.rec;
  m->Add("catalog.publish_ms", Median(DurationsMs(direct.logs,
                                                  "catalog.publish")),
         "ms");
  m->Add("catalog.shards_rebuilt_per_publish",
         Ratio(dr.shards_rebuilt, dr.publish_ms.size()), "count");
  const std::vector<double> apply = DurationsMs(direct.logs, "catalog.apply");
  m->Add("catalog.apply_p50_ms", Median(apply), "ms");
  m->Add("catalog.apply_p99_ms", Percentile(apply, 0.99), "ms");
  m->Add("catalog.shards_touched_per_update",
         Ratio(dr.shards_touched, apply.size()), "count");
  m->Add("catalog.relations_compacted", dr.relations_compacted, "count");
  m->Add("catalog.pin_ms", Median(DurationsMs(direct.logs, "catalog.pin")),
         "ms");

  // core
  const double searches = static_cast<double>(direct.searches);
  m->Add("core.search_ms", Median(DurationsMs(direct.logs, "core.search")),
         "ms");
  m->Add("core.locate_ms", Median(DurationsMs(direct.logs, "core.locate")),
         "ms");
  m->Add("core.pairwise_gen_ms",
         Median(DurationsMs(direct.logs, "core.pairwise_gen")), "ms");
  m->Add("core.pairwise_exec_ms",
         Median(DurationsMs(direct.logs, "core.pairwise_exec")), "ms");
  m->Add("core.weave_ms", Median(DurationsMs(direct.logs, "core.weave")),
         "ms");
  m->Add("core.rank_ms", Median(DurationsMs(direct.logs, "core.rank")), "ms");
  m->Add("core.occurrences", Ratio(direct.occurrences, searches), "count");
  m->Add("core.pairwise_mappings", Ratio(direct.pairwise_mappings, searches),
         "count");
  m->Add("core.tuple_paths_woven", Ratio(direct.tuple_paths_woven, searches),
         "count");
  m->Add("core.valid_mappings", Ratio(direct.valid_mappings, searches),
         "count");
  m->Add("core.pairwise_valid_ratio",
         Ratio(direct.pairwise_valid, direct.pairwise_mappings), "ratio");
  m->Add("core.weave_success_ratio",
         Ratio(direct.weave_successes, direct.weave_attempts), "ratio");
  m->Add("core.heap_allocs_per_search", Ratio(direct.heap_allocs, searches),
         "count");
  m->Add("core.arena_bytes_per_search", Ratio(direct.arena_bytes, searches),
         "bytes");
  m->Add("core.prune_ms", Median(DurationsMs(direct.logs, "core.prune")),
         "ms");
  m->Add("core.candidates_per_prune",
         Ratio(direct.prune_candidates_in, direct.prunes), "count");
  m->Add("core.prune_removed_ratio",
         Ratio(direct.prune_removed, direct.prune_candidates_in), "ratio");

  // query
  const std::vector<double> support =
      DurationsMs(direct.logs, "query.has_support");
  m->Add("query.has_support_p50_ms", Median(support), "ms");
  m->Add("query.has_support_p99_ms", Percentile(support, 0.99), "ms");
  m->Add("query.has_support_max_ms", Percentile(support, 1.0), "ms");
  m->Add("query.has_support_calls_per_prune",
         Ratio(support.size(), direct.prunes), "count");

  // text
  m->Add("text.find_occurrences_ms",
         Median(DurationsMs(direct.logs, "text.find_occurrences")), "ms");
  m->Add("text.probes_per_search", Ratio(direct.text_probes, searches),
         "count");
  m->Add("text.candidates_examined_per_probe",
         Ratio(direct.text_candidates, direct.text_probes), "count");
  m->Add("text.memo_hit_ratio", sm.TextMemoHitRate(), "ratio");
  double index_bytes = 0.0;
  for (const std::string& tenant : w.tenants) {
    if (auto snap = w.catalog->Pin(tenant); snap.ok()) {
      index_bytes += static_cast<double>((*snap)->index_bytes());
    }
  }
  m->Add("text.index_bytes", index_bytes, "bytes");

  // datagen
  m->Add("datagen.generate_s", w.generate_s, "s");

  // the benchmark itself
  std::vector<double> lateness = sr.lateness_ms;
  lateness.insert(lateness.end(), dr.lateness_ms.begin(), dr.lateness_ms.end());
  m->Add("workload.lateness_p99_ms", Percentile(lateness, 0.99), "ms");
  m->Add("trace.overhead_ratio",
         Ratio(Median(sr.service_ms), Median(untraced.rec.service_ms)),
         "ratio");

  // Self times: keystroke coverage, layer shares, and the self-check.
  size_t outside = 0;
  double keystroke_ms = 0.0, keystroke_self_ms = 0.0;
  double slowest_ms = -1.0;
  std::map<std::string, double> slowest_layers;
  for (const auto& log : direct.logs) {
    const std::vector<Span>& spans = log->spans();
    const SelfTimes self = ComputeSelfTimes(spans);
    outside += self.children_outside_parent;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, "workload.keystroke") != 0) continue;
      keystroke_ms += spans[i].ms();
      keystroke_self_ms += static_cast<double>(self.self_ns[i]) / 1e6;
      if (spans[i].ms() > slowest_ms) {
        slowest_ms = spans[i].ms();
        slowest_layers = SubtreeSelfMs(spans, self, i);
      }
    }
  }
  m->Add("trace.unattributed_share", Ratio(keystroke_self_ms, keystroke_ms),
         "ratio");
  m->Add("trace.slowest_keystroke_ms", std::max(0.0, slowest_ms), "ms");
  m->Add("trace.slowest_keystroke_query_share",
         Ratio(slowest_layers["query"], slowest_ms), "ratio");
  std::printf("slowest direct keystroke: %.3f ms; self time by layer:",
              slowest_ms);
  for (const auto& [layer, ms] : slowest_layers) {
    std::printf(" %s=%.3f", layer.c_str(), ms);
  }
  std::printf("\nself-check: %zu child spans outside their parent\n",
              outside);
  return outside == 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mapping_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  const WorkloadConfig* cfg = FindWorkload(args.workload);
  if (cfg == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The traced run is three phases of half the run length each. Its write
  // phase runs once, below the service where the catalog spans are.
  const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const size_t setups = args.trace ? 1 : cfg->setups;

  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (size_t i = 0; i < setups; ++i) {
    world.reset();
    const Clock::time_point start = Clock::now();
    world = std::make_unique<World>();
    const Status built = BuildWorld(*cfg, args.seed, phase_s, world.get());
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", built.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MsSince(start, Clock::now()) / 1e3);
  }
  World& w = *world;
  if (!w.popular.empty()) {
    std::printf("popular first rows: %zu cached, %zu drawn rows passed over "
                "because their search exceeds the %d ms budget\n",
                w.popular.size(), w.uncacheable_rows, cfg->deadline_ms);
  }
  const std::string load =
      cfg->clients > 0
          ? std::to_string(cfg->clients) + " closed-loop clients"
          : std::to_string(static_cast<int>(cfg->session_rate)) +
                " sessions/s open loop";
  std::printf("workload %s: seed %llu, %zu movies (%zu rows), %zu tenant(s), "
              "%zu tasks, %s\n",
              cfg->name, static_cast<unsigned long long>(args.seed),
              cfg->movies, w.source.TotalRows(), w.tenants.size(),
              w.tasks.size(), load.c_str());

  MetricSet metrics;
  bool checks_ok = true;
  uint64_t attempted = 0, failed = 0;
  auto count = [&](const Recorder& r) {
    attempted += r.sessions_ok + r.sessions_wrong + r.writes_ok +
                 r.writes_failed;
    failed += r.sessions_wrong + r.writes_failed;
  };
  if (!args.trace) {
    ServiceRun run = RunServicePhase(*cfg, w, phase_s, true, false);
    count(run.rec);
    AddEndToEnd(*cfg, run, phase_s, Median(setup_s), &metrics);
    std::printf("sessions: %llu converged to the goal, %llu wrong or "
                "unconverged; writes: %llu ok, %llu failed; error_share "
                "%.6f\n",
                static_cast<unsigned long long>(run.rec.sessions_ok),
                static_cast<unsigned long long>(run.rec.sessions_wrong),
                static_cast<unsigned long long>(run.rec.writes_ok),
                static_cast<unsigned long long>(run.rec.writes_failed),
                Ratio(failed, attempted));
  } else {
    ServiceRun untraced = RunServicePhase(*cfg, w, phase_s, false, false);
    ServiceRun traced = RunServicePhase(*cfg, w, phase_s, false, true);
    DirectRun direct = RunDirectPhase(*cfg, w, phase_s);
    count(untraced.rec);
    count(traced.rec);
    count(direct.rec);
    checks_ok = AddPerLayer(w, untraced, traced, direct, &metrics);
    if (!args.spans_path.empty()) {
      std::vector<const SpanLog*> logs;
      for (const auto& l : traced.logs) logs.push_back(l.get());
      for (const auto& l : direct.logs) logs.push_back(l.get());
      if (!WriteSpans(args.spans_path, logs)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.spans_path.c_str());
        checks_ok = false;
      }
    }
  }
  checks_ok = checks_ok && metrics.AllFinite();
  metrics.PrintLines();
  const bool correct = checks_ok && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed),
              metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mweaver::perfbench

int main(int argc, char** argv) { return mweaver::perfbench::Main(argc, argv); }
