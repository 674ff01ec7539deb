// MappingService: the concurrent front-end multiplexing many interactive
// mapping sessions over a multi-tenant catalog of immutable snapshots.
//
//   clients --> bounded FIFO queue --> common::ThreadPool workers
//                     |                     |
//                 kOverloaded          SessionManager (per-session mutex,
//               (explicit, never        each session pins one Snapshot)
//                blocking; global           |
//                AND per-tenant)       ResultCache (first-row searches,
//                                       keys scoped by tenant + epoch)
//
// Tenancy: every session is created against one tenant of the catalog and
// pins that tenant's current snapshot for its whole lifetime — bulk loads
// publishing new epochs never change what an open session sees. Requests
// are attributed to the tenant of their session: per-tenant metric
// rollups, and a per-tenant admission share so one hot tenant cannot
// occupy the whole queue and starve the rest.
//
// Backpressure: admission is non-blocking. When the queue is full — or
// the request's tenant already holds its share of it — Enqueue() returns
// ResourceExhausted immediately ("kOverloaded") so the client can back
// off — a closed-loop client retries, an interactive UI greys out the
// spreadsheet — instead of piling latency onto the queue.
//
// Deadlines: each request carries a wall-clock budget measured from
// admission (queue wait counts — a request that waited out its budget is
// answered immediately). The worker arms the deadline on the session's
// ExecutionContext, and every stage of the core pipeline polls its
// ShouldStop(): the client gets a prompt partial result with
// SearchStats::truncated set rather than a stalled worker.
#ifndef MWEAVER_SERVICE_MAPPING_SERVICE_H_
#define MWEAVER_SERVICE_MAPPING_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tenant_writer.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/options.h"
#include "core/session.h"
#include "service/metrics.h"
#include "service/result_cache.h"
#include "service/session_manager.h"

namespace mweaver::service {

/// \brief The tenant single-tenant callers land on: CreateSession without
/// a tenant name targets it (the catalog must have it published).
inline constexpr std::string_view kDefaultTenant = "default";

struct ServiceOptions {
  /// Dedicated worker threads processing requests.
  size_t num_workers = 4;
  /// Admission bound: Enqueue() returns kOverloaded beyond this many
  /// queued-but-unstarted requests.
  size_t max_queue_depth = 256;
  /// Per-tenant admission share: one tenant may occupy at most
  /// ceil-to-1(max_tenant_queue_share * max_queue_depth) queued slots;
  /// beyond that its requests are rejected kOverloaded even though the
  /// queue has room, keeping headroom for every other tenant. 1.0
  /// effectively disables the share (the global bound still applies).
  double max_tenant_queue_share = 0.5;
  /// LRU capacity of the first-row search cache (0 disables it). The
  /// cache is shared across tenants; keys are tenant+epoch scoped so
  /// entries can never leak between tenants or across republishes.
  size_t cache_capacity = 128;
  /// Deadline applied to requests that don't carry their own (0 = none).
  std::chrono::milliseconds default_deadline{0};
  /// Worker threads for the parallel stages inside each search/pruning
  /// pass (core::SearchOptions::num_threads). 0 = leave the per-session
  /// options as the client passed them; > 0 overrides at CreateSession.
  /// Results are deterministic regardless of the value, so the override
  /// never changes cached-vs-fresh answers (num_threads is excluded from
  /// the cache fingerprint). Search workers come from ThreadPool::Shared,
  /// not the service's request workers.
  size_t search_parallelism = 0;
  SessionManagerOptions sessions;
};

/// \brief One spreadsheet keystroke routed through the service:
/// Input(row, col, value) on an open session.
struct InputRequest {
  SessionId session_id = 0;
  size_t row = 0;
  size_t col = 0;
  std::string value;
  /// Wall-clock budget from admission; 0 = use the service default. A
  /// negative budget is already expired at admission — the request is
  /// answered immediately with a truncated result (deterministic load
  /// shedding, also exercised by tests).
  std::chrono::milliseconds deadline{0};
};

/// \brief A streaming update batch routed through the service: the same
/// bounded queue, per-tenant admission share, deadline and retry treatment
/// as searches, so update traffic cannot starve search traffic (or vice
/// versa) by bypassing backpressure.
struct UpdateRequest {
  std::string tenant;
  catalog::UpdateBatch batch;
  /// Wall-clock budget from admission; 0 = use the service default. An
  /// update whose budget expires while still queued is NOT applied and is
  /// answered kTruncated with an Unavailable status (safe to retry: the
  /// batch never started).
  std::chrono::milliseconds deadline{0};
};

/// \brief What the client gets back.
struct RequestResult {
  /// Request-level status: kOverloaded admission failures surface as
  /// ResourceExhausted, unknown sessions as NotFound, session-model
  /// violations (bad column, first-row re-entry) as their Input() status.
  Status status;
  RequestOutcome outcome = RequestOutcome::kFailed;
  core::SessionState state = core::SessionState::kAwaitingFirstRow;
  size_t num_candidates = 0;
  /// The first-row search this request fired was cut short (deadline or
  /// tuple-path caps), or the pruning pass it ran was stopped and kept
  /// candidates it did not examine.
  bool truncated = false;
  /// The first-row search was answered from the result cache.
  bool cache_hit = false;
  /// The request succeeded only after the service retried a transient
  /// (Unavailable) failure. Reported as kDegraded unless the retry was
  /// also truncated (truncation wins: the client must know the result is
  /// partial).
  bool degraded = false;
  /// Admission-to-completion latency (queue wait included).
  double latency_ms = 0.0;

  /// Update requests only: the minor epoch the batch installed and the row
  /// ids assigned to the batch's inserts (in order) — zero/empty for
  /// searches and for failed updates.
  uint64_t update_minor_epoch = 0;
  std::vector<storage::RowId> inserted_rows;
};

/// \brief The concurrent mapping service. All public methods are
/// thread-safe.
class MappingService {
 public:
  /// \brief `catalog` must outlive the service. The service does not own
  /// the catalog: ingestion (Catalog::Publish) runs beside it, and several
  /// services could front one catalog.
  explicit MappingService(catalog::Catalog* catalog,
                          ServiceOptions options = {});

  /// \brief Stops accepting work, then fails every still-queued request
  /// with Internal("service shutting down") before joining the workers.
  ~MappingService();

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// \brief Opens a session on `tenant`, pinning the tenant's CURRENT
  /// snapshot for the session's whole lifetime (registry-level call, not
  /// queued: creation is cheap and must not contend with search traffic
  /// for workers). NotFound when the tenant has never been published (or
  /// was evicted).
  Result<SessionId> CreateSession(std::string_view tenant,
                                  std::vector<std::string> column_names,
                                  core::SearchOptions search_options = {});

  /// \brief Single-tenant convenience: CreateSession on kDefaultTenant.
  Result<SessionId> CreateSession(std::vector<std::string> column_names,
                                  core::SearchOptions search_options = {}) {
    return CreateSession(kDefaultTenant, std::move(column_names),
                         search_options);
  }

  /// \brief Closes a session explicitly (idle ones expire via TTL).
  Status CloseSession(SessionId id);

  /// \brief Submits a request. Returns immediately: OK when admitted
  /// (`done` fires exactly once, on a worker thread), ResourceExhausted
  /// when the queue — or the session's tenant share of it — is full
  /// (`done` never fires).
  Status Enqueue(InputRequest request,
                 std::function<void(RequestResult)> done);

  /// \brief Synchronous convenience: Enqueue + wait. Overload is reported
  /// in the returned RequestResult (status ResourceExhausted, outcome
  /// kOverloaded).
  RequestResult Call(InputRequest request);

  /// \brief Submits a streaming update batch through the same admission
  /// path as searches (global queue bound, per-tenant share, kOverloaded
  /// backpressure). `done` fires exactly once on a worker thread; a
  /// transient (Unavailable) failure — injected or real — is retried once
  /// and reported kDegraded on success. The batch is atomic either way:
  /// on any failure the tenant keeps serving its current snapshot.
  Status EnqueueUpdate(UpdateRequest request,
                       std::function<void(RequestResult)> done);

  /// \brief Synchronous convenience: EnqueueUpdate + wait.
  RequestResult ApplyUpdate(UpdateRequest request);

  /// \brief Runs an idle-session sweep; returns sessions reclaimed.
  size_t EvictIdleSessions() { return sessions_.EvictIdle(); }

  /// \brief Runs the catalog's cold-tenant sweep and drops the evicted
  /// tenants' result-cache entries; returns tenants reclaimed. Sessions
  /// still pinning an evicted tenant's snapshot keep serving from it.
  size_t EvictIdleTenants();

  catalog::Catalog& catalog() { return *catalog_; }
  SessionManager& sessions() { return sessions_; }
  const ResultCache& cache() const { return cache_; }
  ResultCache& mutable_cache() { return cache_; }
  MetricsSnapshot SnapshotMetrics() const { return metrics_.Snapshot(); }
  /// \brief The metrics snapshot as a JSON object (export hook for the
  /// workload runner, examples, and monitoring).
  std::string SnapshotMetricsJson() const { return metrics_.SnapshotJson(); }
  /// \brief Per-tenant rollups as `{"<tenant>": {...}, ...}` (embedded
  /// beside the global metrics in BENCH_*.json and mapping_server output).
  std::string PerTenantMetricsJson() const {
    return tenant_metrics_.ToJson();
  }
  std::map<std::string, TenantMetricsSnapshot> PerTenantMetrics() const {
    return tenant_metrics_.Snapshot();
  }
  /// \brief Starts a fresh latency-histogram interval (scalar counters
  /// stay monotonic; see ServiceMetrics::ResetHistograms).
  void ResetMetricsHistograms() { metrics_.ResetHistograms(); }
  const ServiceOptions& options() const { return options_; }
  /// \brief The per-tenant queued-slot cap derived from the options.
  size_t TenantQueueCap() const;

 private:
  struct QueuedRequest {
    InputRequest request;
    /// Set for update requests; Process() dispatches on it. The shared
    /// queue is deliberate: updates and searches compete for the same
    /// bounded slots and workers, so neither class dodges backpressure.
    bool is_update = false;
    UpdateRequest update;
    std::function<void(RequestResult)> done;
    /// Tenant of the request's session at admission (empty when the
    /// session id is unknown — Process() then reports NotFound; such
    /// requests count toward the global bound but no tenant share).
    std::string tenant;
    core::SearchClock::time_point admitted;
    core::SearchClock::time_point deadline;  // max() = none
  };

  /// Shared admission: bounds, tenant share, queue push. Used by Enqueue
  /// and EnqueueUpdate once the QueuedRequest is assembled.
  Status Admit(QueuedRequest queued);
  /// Pops and processes one queued request (runs on a pool worker).
  void DrainOne();
  RequestResult Process(const QueuedRequest& queued);
  RequestResult ProcessUpdate(const QueuedRequest& queued);
  /// The caching first-row search bound to one session's pinned snapshot:
  /// keys carry the snapshot's tenant + epoch, per-tenant cache counters
  /// bump alongside the global ones.
  core::Session::SearchFn MakeCachingSearchFn(catalog::SnapshotPtr snapshot);

  catalog::Catalog* const catalog_;
  const ServiceOptions options_;

  SessionManager sessions_;
  catalog::TenantWriter writer_;
  ResultCache cache_;
  ServiceMetrics metrics_;
  TenantMetricsRegistry tenant_metrics_;

  std::mutex queue_mu_;
  std::deque<QueuedRequest> queue_;
  /// Queued-but-unstarted requests per tenant (admission shares); entries
  /// are erased at zero so dropped tenants don't accumulate.
  std::map<std::string, size_t, std::less<>> tenant_queued_;
  bool shutdown_ = false;

  // Last: workers must start after (and be joined before) everything they
  // touch.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mweaver::service

#endif  // MWEAVER_SERVICE_MAPPING_SERVICE_H_
