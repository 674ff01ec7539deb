#include "service/mapping_service.h"

#include <algorithm>
#include <future>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/sample_search.h"

namespace mweaver::service {

MappingService::MappingService(catalog::Catalog* catalog,
                               ServiceOptions options)
    : catalog_(catalog),
      options_(options),
      sessions_(options.sessions),
      writer_(catalog),
      cache_(options.cache_capacity),
      pool_(std::make_unique<ThreadPool>(options.num_workers)) {
  MW_CHECK(catalog != nullptr);
}

MappingService::~MappingService() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutdown_ = true;
  }
  // Joining the pool first guarantees no worker is mid-DrainOne when the
  // leftover queue is failed below (the pool discards unstarted drain
  // tokens; their requests are exactly the leftovers).
  pool_.reset();
  std::deque<QueuedRequest> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers.swap(queue_);
    tenant_queued_.clear();
  }
  for (QueuedRequest& queued : leftovers) {
    RequestResult result;
    result.status = Status::Internal("service shutting down");
    result.outcome = RequestOutcome::kFailed;
    metrics_.RecordRequest(result.outcome, 0.0);
    if (!queued.tenant.empty()) {
      tenant_metrics_.RecordRequest(queued.tenant, result.outcome);
    }
    if (queued.done) queued.done(std::move(result));
  }
}

size_t MappingService::TenantQueueCap() const {
  const double share = std::clamp(options_.max_tenant_queue_share, 0.0, 1.0);
  const auto cap =
      static_cast<size_t>(share * static_cast<double>(options_.max_queue_depth));
  return std::max<size_t>(1, cap);
}

namespace {
// Whether the most recent first-row search on THIS worker thread was a
// cache hit. The caching hook runs synchronously inside Session::Input on
// the worker, so the flag connects the hook's verdict to the Process()
// frame above it without widening core::Session's API.
thread_local bool tls_last_search_was_cache_hit = false;
}  // namespace

core::Session::SearchFn MappingService::MakeCachingSearchFn(
    catalog::SnapshotPtr snapshot) {
  // The wrapper runs inside Session::RunSearch, i.e. under the session's
  // mutex on a worker thread. The cache has its own lock, so concurrent
  // sessions share results safely — across sessions of the SAME tenant
  // and epoch only, because both are baked into the key.
  //
  // The lambda holds its own snapshot pin: even if the session entry were
  // torn down mid-call, the engine/graph it searches stay alive.
  // Resolve the counters AND the cache-key prefix before the capture list:
  // the `snapshot` init-capture moves the parameter, so touching it in a
  // later initializer would read a moved-from pointer. Freezing the prefix
  // here — at pin time — makes it impossible for a request admitted under
  // this serving state to be keyed with a later epoch/minor: the snapshot
  // is immutable and the prefix is literally a captured constant.
  auto tenant_counters = tenant_metrics_.ForTenant(snapshot->tenant());
  std::string key_prefix = ResultCache::MakeKeyPrefix(
      snapshot->tenant(), snapshot->epoch(), snapshot->minor_epoch(),
      snapshot->shard_count());
  return [this, snapshot = std::move(snapshot),
          tenant_counters = std::move(tenant_counters),
          key_prefix = std::move(key_prefix)](
             const std::vector<std::string>& first_row,
             const core::SearchOptions& opts, core::ExecutionContext& ctx)
             -> Result<core::SearchResult> {
    const std::string key =
        ResultCache::MakeKeyWithPrefix(key_prefix, first_row, opts);
    if (std::optional<core::SearchResult> hit = cache_.Lookup(key)) {
      metrics_.RecordCacheLookup(/*hit=*/true);
      tenant_counters->cache_hits.fetch_add(1, std::memory_order_relaxed);
      tls_last_search_was_cache_hit = true;
      return std::move(*hit);
    }
    metrics_.RecordCacheLookup(/*hit=*/false);
    tenant_counters->cache_misses.fetch_add(1, std::memory_order_relaxed);
    // Chaos site: the backend flaking at search dispatch. Injects an
    // Unavailable status, which Process() absorbs with one retry.
    MW_FAILPOINT_RETURN_NOT_OK("service.search.transient");
    MW_ASSIGN_OR_RETURN(core::SearchResult result,
                        core::SampleSearch(snapshot->engine(),
                                           snapshot->graph(), first_row,
                                           opts, ctx));
    metrics_.RecordSearchTrace(result.stats.trace);
    // Insert rejects truncated results itself.
    if (std::optional<std::string> evicted = cache_.Insert(key, result)) {
      metrics_.RecordCacheEviction();
      if (!evicted->empty()) {
        tenant_metrics_.ForTenant(*evicted)->cache_evictions.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    return result;
  };
}

Result<SessionId> MappingService::CreateSession(
    std::string_view tenant, std::vector<std::string> column_names,
    core::SearchOptions search_options) {
  // Pin the tenant's current snapshot NOW: everything this session ever
  // searches — and every cache key it produces — is this epoch, no matter
  // how many publishes land while the session is open.
  MW_ASSIGN_OR_RETURN(catalog::SnapshotPtr snapshot, catalog_->Pin(tenant));
  if (options_.search_parallelism > 0) {
    search_options.num_threads = options_.search_parallelism;
  }
  auto search_fn = MakeCachingSearchFn(snapshot);
  MW_ASSIGN_OR_RETURN(
      SessionId id,
      sessions_.Create(std::move(snapshot), std::move(column_names),
                       search_options, std::move(search_fn)));
  tenant_metrics_.ForTenant(tenant)->sessions_created.fetch_add(
      1, std::memory_order_relaxed);
  return id;
}

Status MappingService::CloseSession(SessionId id) {
  return sessions_.Close(id);
}

Status MappingService::Enqueue(InputRequest request,
                               std::function<void(RequestResult)> done) {
  const auto now = core::SearchClock::now();
  const std::chrono::milliseconds budget =
      request.deadline.count() != 0 ? request.deadline
                                    : options_.default_deadline;
  QueuedRequest queued;
  // Resolve the session's tenant before taking the queue lock (it's a
  // registry lookup with its own mutex). Unknown session: leave the
  // tenant empty and let the worker report NotFound — admission order
  // must not depend on registry races.
  if (Result<catalog::SnapshotPtr> pinned =
          sessions_.SnapshotOf(request.session_id);
      pinned.ok()) {
    queued.tenant = (*pinned)->tenant();
  }
  queued.request = std::move(request);
  queued.done = std::move(done);
  queued.admitted = now;
  queued.deadline = budget.count() != 0
                        ? now + budget
                        : core::SearchClock::time_point::max();
  return Admit(std::move(queued));
}

Status MappingService::EnqueueUpdate(UpdateRequest request,
                                     std::function<void(RequestResult)> done) {
  const auto now = core::SearchClock::now();
  const std::chrono::milliseconds budget =
      request.deadline.count() != 0 ? request.deadline
                                    : options_.default_deadline;
  QueuedRequest queued;
  queued.is_update = true;
  queued.tenant = request.tenant;
  queued.update = std::move(request);
  queued.done = std::move(done);
  queued.admitted = now;
  queued.deadline = budget.count() != 0
                        ? now + budget
                        : core::SearchClock::time_point::max();
  return Admit(std::move(queued));
}

RequestResult MappingService::ApplyUpdate(UpdateRequest request) {
  std::promise<RequestResult> promise;
  std::future<RequestResult> future = promise.get_future();
  Status admitted =
      EnqueueUpdate(std::move(request), [&](RequestResult result) {
        promise.set_value(std::move(result));
      });
  if (!admitted.ok()) {
    RequestResult rejected;
    rejected.status = std::move(admitted);
    rejected.outcome = rejected.status.IsResourceExhausted()
                           ? RequestOutcome::kOverloaded
                           : RequestOutcome::kFailed;
    return rejected;
  }
  return future.get();
}

Status MappingService::Admit(QueuedRequest queued) {
  const size_t tenant_cap = TenantQueueCap();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("service is shutting down");
    }
    // Chaos site: forced admission rejection — the client sees the same
    // kOverloaded backpressure a genuinely full queue produces.
    if (MW_FAILPOINT_TRIGGERED("service.queue.admit") ||
        queue_.size() >= options_.max_queue_depth) {
      metrics_.RecordRequest(RequestOutcome::kOverloaded, 0.0);
      if (!queued.tenant.empty()) {
        tenant_metrics_.RecordRequest(queued.tenant,
                                      RequestOutcome::kOverloaded);
      }
      return Status::ResourceExhausted(
          "request queue full; back off and retry");
    }
    if (!queued.tenant.empty()) {
      auto it = tenant_queued_.find(queued.tenant);
      const size_t tenant_depth = it == tenant_queued_.end() ? 0 : it->second;
      if (tenant_depth >= tenant_cap) {
        // The queue has room but this tenant already owns its share of it:
        // reject so other tenants keep getting admitted. Recorded both as
        // a plain overload (the client-visible truth) and as a
        // share_rejection (the operator-visible cause).
        const auto counters = tenant_metrics_.ForTenant(queued.tenant);
        counters->share_rejections.fetch_add(1, std::memory_order_relaxed);
        counters->by_outcome[static_cast<size_t>(
                                 RequestOutcome::kOverloaded)]
            .fetch_add(1, std::memory_order_relaxed);
        metrics_.RecordRequest(RequestOutcome::kOverloaded, 0.0);
        return Status::ResourceExhausted(
            "tenant queue share exhausted; back off and retry");
      }
      if (it == tenant_queued_.end()) {
        tenant_queued_.emplace(queued.tenant, 1);
      } else {
        ++it->second;
      }
    }
    queue_.push_back(std::move(queued));
    metrics_.RecordQueueDepth(queue_.size());
  }
  pool_->Submit([this]() { DrainOne(); });
  return Status::OK();
}

RequestResult MappingService::Call(InputRequest request) {
  std::promise<RequestResult> promise;
  std::future<RequestResult> future = promise.get_future();
  Status admitted = Enqueue(std::move(request), [&](RequestResult result) {
    promise.set_value(std::move(result));
  });
  if (!admitted.ok()) {
    RequestResult rejected;
    rejected.status = std::move(admitted);
    rejected.outcome = rejected.status.IsResourceExhausted()
                           ? RequestOutcome::kOverloaded
                           : RequestOutcome::kFailed;
    return rejected;
  }
  return future.get();
}

size_t MappingService::EvictIdleTenants() {
  // The catalog reports exactly who it evicted and at which epoch, and the
  // cache purge is bounded by that epoch: a republish of the same tenant
  // name racing this sweep owns a strictly newer epoch (catalog-wide
  // monotonic counter), so its fresh entries survive. The old
  // diff-the-listing approach purged by name alone and would eat them.
  const std::vector<catalog::Catalog::EvictedTenant> evicted =
      catalog_->EvictIdle();
  for (const catalog::Catalog::EvictedTenant& tenant : evicted) {
    cache_.EvictTenantEntries(tenant.name, tenant.epoch);
  }
  return evicted.size();
}

void MappingService::DrainOne() {
  // Chaos site: a worker stalling between dequeue token and dispatch
  // (scheduler hiccup, page fault storm) — eats into request deadlines.
  (void)MW_FAILPOINT_FIRE("service.worker.dispatch");
  QueuedRequest queued;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // Every Submit pairs with exactly one queued request, and the pool
    // never runs a drain token it discarded at shutdown.
    MW_CHECK(!queue_.empty());
    queued = std::move(queue_.front());
    queue_.pop_front();
    if (!queued.tenant.empty()) {
      auto it = tenant_queued_.find(queued.tenant);
      MW_CHECK(it != tenant_queued_.end() && it->second > 0);
      if (--it->second == 0) tenant_queued_.erase(it);
    }
  }
  RequestResult result =
      queued.is_update ? ProcessUpdate(queued) : Process(queued);
  metrics_.RecordRequest(result.outcome, result.latency_ms);
  if (!queued.tenant.empty()) {
    tenant_metrics_.RecordRequest(queued.tenant, result.outcome);
  }
  if (queued.done) queued.done(std::move(result));
}

RequestResult MappingService::ProcessUpdate(const QueuedRequest& queued) {
  RequestResult result;
  const auto record = [&](bool ok, uint64_t inserted, uint64_t deleted) {
    metrics_.RecordUpdate(ok, inserted, deleted);
    const auto counters = tenant_metrics_.ForTenant(queued.tenant);
    (ok ? counters->updates_ok : counters->updates_failed)
        .fetch_add(1, std::memory_order_relaxed);
  };
  const auto finish = [&](RequestOutcome outcome, Status status) {
    result.outcome = outcome;
    result.status = std::move(status);
    result.latency_ms =
        std::chrono::duration<double, std::milli>(core::SearchClock::now() -
                                                  queued.admitted)
            .count();
    return result;
  };

  // An update that waited out its budget in the queue is NOT applied: the
  // status says so explicitly (unlike a search, where "truncated" means a
  // partial answer, an un-applied batch must be unambiguous — and it is
  // safe to resubmit, since nothing started).
  if (core::SearchClock::now() >= queued.deadline) {
    result.truncated = true;
    record(/*ok=*/false, 0, 0);
    return finish(RequestOutcome::kTruncated,
                  Status::Unavailable(
                      "update deadline expired in queue; batch not applied"));
  }

  Result<catalog::UpdateResult> applied =
      writer_.Apply(queued.update.tenant, queued.update.batch);
  // Same graceful degradation as searches: one retry on a transient
  // (Unavailable) failure. Apply is atomic — a failed attempt left no
  // trace — so the replay is safe; the retry shares the search counter
  // since it reports the same backend-flaking signal.
  if (!applied.ok() && applied.status().IsUnavailable() &&
      core::SearchClock::now() < queued.deadline) {
    metrics_.RecordSearchRetry();
    applied = writer_.Apply(queued.update.tenant, queued.update.batch);
    if (applied.ok()) result.degraded = true;
  }
  if (!applied.ok()) {
    record(/*ok=*/false, 0, 0);
    return finish(RequestOutcome::kFailed, applied.status());
  }
  const catalog::UpdateResult& update = applied.ValueOrDie();
  result.update_minor_epoch = update.snapshot->minor_epoch();
  result.inserted_rows = update.inserted_rows;
  record(/*ok=*/true, update.rows_inserted, update.rows_deleted);
  tenant_metrics_.ForTenant(queued.tenant)
      ->update_shards_touched.fetch_add(update.shards_touched,
                                        std::memory_order_relaxed);
  return finish(result.degraded ? RequestOutcome::kDegraded
                                : RequestOutcome::kOk,
                Status::OK());
}

RequestResult MappingService::Process(const QueuedRequest& queued) {
  RequestResult result;
  const auto finish = [&](RequestOutcome outcome, Status status) {
    result.outcome = outcome;
    result.status = std::move(status);
    result.latency_ms =
        std::chrono::duration<double, std::milli>(core::SearchClock::now() -
                                                  queued.admitted)
            .count();
    return result;
  };

  // A request that waited out its whole budget in the queue is answered
  // immediately — running the search would only waste the worker on an
  // answer the client has given up on.
  if (core::SearchClock::now() >= queued.deadline) {
    result.truncated = true;
    return finish(RequestOutcome::kTruncated, Status::OK());
  }

  auto attempt = [&]() -> Status {
    tls_last_search_was_cache_hit = false;
    Status status = sessions_.WithSession(
        queued.request.session_id, [&](core::Session& session) {
          const bool was_awaiting =
              session.state() == core::SessionState::kAwaitingFirstRow;
          // Arm the per-request deadline on the session's execution context
          // (options stay immutable — the cache keys on their fingerprint).
          session.context().set_deadline(queued.deadline);
          Status input = session.Input(queued.request.row, queued.request.col,
                                       queued.request.value);
          session.context().clear_deadline();
          result.state = session.state();
          result.num_candidates = session.candidates().size();
          // `truncated` describes THIS request: the first-row search it
          // fired, or the pruning pass it ran, was cut short by the
          // deadline (search stats persist on the session afterwards, so
          // don't re-report them for later pruning inputs).
          const bool search_ran_now =
              was_awaiting &&
              session.state() != core::SessionState::kAwaitingFirstRow;
          // A non-empty below-first-row input on a searched session ran a
          // pruning pass. A stop during it kept unexamined candidates, so
          // its answer is partial. Fold its trace (kPrune latency, worker
          // fan-out, probe counters) into the metrics. Empty values clear
          // cells without pruning — the context still holds a stale trace
          // and stop latch then.
          const bool pruned_now =
              input.ok() && !was_awaiting && !queued.request.value.empty();
          result.truncated =
              search_ran_now ? session.search_stats().truncated
                             : pruned_now && session.context().stop_requested();
          if (pruned_now) {
            metrics_.RecordPruneTrace(session.context().trace());
          }
          return input;
        });
    result.cache_hit = tls_last_search_was_cache_hit;
    return status;
  };

  Status status = attempt();
  // Graceful degradation: a transient (Unavailable) failure gets exactly
  // one retry. A failed search leaves the session in kAwaitingFirstRow
  // with its grid intact, so replaying the same Input is idempotent; a
  // second Unavailable is reported as the failure it is.
  if (status.IsUnavailable() &&
      core::SearchClock::now() < queued.deadline) {
    metrics_.RecordSearchRetry();
    result.truncated = false;
    status = attempt();
    if (status.ok()) result.degraded = true;
  }
  if (!status.ok()) {
    return finish(RequestOutcome::kFailed, std::move(status));
  }
  // Truncation wins over degradation: the client must know the result is
  // partial before caring how it got there.
  return finish(result.truncated  ? RequestOutcome::kTruncated
                : result.degraded ? RequestOutcome::kDegraded
                                  : RequestOutcome::kOk,
                Status::OK());
}

}  // namespace mweaver::service
