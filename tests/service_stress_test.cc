// Multi-threaded stress test for the service layer, designed to run under
// TSan (ctest label "tsan"): 8 client threads hammer one SessionManager
// and one MappingService — creating sessions, driving them to convergence,
// racing evictions and closes — over the shared immutable Figure-2 source.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "core/execution_context.h"
#include "core/sample_search.h"
#include "core/session.h"
#include "graph/schema_graph.h"
#include "service/mapping_service.h"
#include "service/session_manager.h"
#include "test_util.h"
#include "text/fulltext_engine.h"

namespace mweaver::service {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kSessionsPerThread = 12;

struct Env {
  Env()
      : snapshot(catalog
                     .Publish(kDefaultTenant, testing::MakeFigure2Db())
                     .ValueOrDie()),
        engine(snapshot->engine()),
        graph(snapshot->graph()) {}
  // mutable: the catalog is internally synchronized, and chaos/stress
  // drivers share one Env through a const ref.
  mutable catalog::Catalog catalog;
  catalog::SnapshotPtr snapshot;
  const text::FullTextEngine& engine;
  const graph::SchemaGraph& graph;
};

// Drives one session through the quickstart convergence script.
Status DriveToConvergence(core::Session& session) {
  const std::vector<std::tuple<size_t, size_t, const char*>> keystrokes{
      {0, 0, "Avatar"},
      {0, 1, "James Cameron"},
      {1, 0, "Harry Potter"},
      {1, 1, "David Yates"},
  };
  for (const auto& [row, col, value] : keystrokes) {
    MW_RETURN_NOT_OK(session.Input(row, col, value));
  }
  return session.converged()
             ? Status::OK()
             : Status::Internal("session failed to converge");
}

TEST(ServiceStressTest, ManyThreadsManySessionsThroughSessionManager) {
  Env env;
  SessionManagerOptions options;
  options.idle_ttl = std::chrono::milliseconds(1);
  options.max_sessions = kThreads * kSessionsPerThread + 1;
  SessionManager manager(options);

  std::atomic<size_t> converged{0};
  std::atomic<size_t> evicted{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t s = 0; s < kSessionsPerThread; ++s) {
        auto created = manager.Create(env.snapshot, {"Name", "Director"});
        ASSERT_TRUE(created.ok()) << created.status();
        const SessionId id = *created;
        const Status status = manager.WithSession(id, DriveToConvergence);
        // NotFound is legal: another thread's eviction sweep may reclaim
        // this session between Create and WithSession (the TTL is ~0).
        if (status.ok()) {
          converged.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_TRUE(status.IsNotFound()) << status;
        }
        if ((t + s) % 3 == 0) {
          evicted.fetch_add(manager.EvictIdle(), std::memory_order_relaxed);
        } else {
          (void)manager.Close(id);  // racing Close vs eviction is the point
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(converged.load(), 0u);
  (void)manager.EvictIdle();
}

TEST(ServiceStressTest, ManyClientsThroughMappingService) {
  Env env;
  ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 64;
  options.cache_capacity = 32;
  MappingService svc(&env.catalog, options);

  std::atomic<size_t> converged{0};
  std::atomic<size_t> overloaded{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&]() {
      for (size_t s = 0; s < kSessionsPerThread; ++s) {
        auto created = svc.CreateSession({"Name", "Director"});
        ASSERT_TRUE(created.ok()) << created.status();
        const std::vector<std::tuple<size_t, size_t, const char*>> script{
            {0, 0, "Avatar"},
            {0, 1, "James Cameron"},
            {1, 0, "Harry Potter"},
            {1, 1, "David Yates"},
        };
        bool failed = false;
        RequestResult last;
        for (const auto& [row, col, value] : script) {
          InputRequest request;
          request.session_id = *created;
          request.row = row;
          request.col = col;
          request.value = value;
          last = svc.Call(request);
          while (last.outcome == RequestOutcome::kOverloaded) {
            overloaded.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
            last = svc.Call(request);
          }
          if (!last.status.ok()) {
            failed = true;
            break;
          }
        }
        ASSERT_FALSE(failed) << last.status;
        if (last.state == core::SessionState::kConverged) {
          converged.fetch_add(1, std::memory_order_relaxed);
        }
        ASSERT_TRUE(svc.CloseSession(*created).ok());
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(converged.load(), kThreads * kSessionsPerThread);
  const MetricsSnapshot snapshot = svc.SnapshotMetrics();
  EXPECT_EQ(snapshot.requests_failed, 0u);
  // Everyone types the same first row. Concurrent identical misses are
  // not coalesced, so each client's first search may miss; but a client's
  // later sessions start only after its first search has inserted the
  // result, so they hit.
  EXPECT_GT(snapshot.cache_hits, 0u);
  EXPECT_EQ(svc.sessions().size(), 0u);
}

// A client thread flips the cancellation token while the search is in
// flight (including while pairwise execution polls from ParallelFor
// workers). Run under TSan, this vets the relaxed-atomic stop plumbing;
// functionally, a cancelled run must still return a well-formed (possibly
// truncated) result.
TEST(ServiceStressTest, CrossThreadCancellationMidSearch) {
  Env env;
  core::SearchOptions options;
  for (int round = 0; round < 25; ++round) {
    std::atomic<bool> cancel{false};
    std::atomic<bool> started{false};
    core::ExecutionContext ctx;
    ctx.set_cancel_token(&cancel);
    std::thread canceller([&]() {
      while (!started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      cancel.store(true, std::memory_order_relaxed);
    });
    started.store(true, std::memory_order_release);
    auto result = core::SampleSearch(
        env.engine, env.graph, {"Avatar", "James Cameron", "James Cameron"},
        options, ctx);
    canceller.join();
    ASSERT_TRUE(result.ok()) << result.status();
    // Either the search finished before the token landed, or it observed
    // the stop and flagged the result — both are valid; racing is the point.
    if (result->stats.deadline_expired) {
      EXPECT_TRUE(result->stats.truncated);
    }
  }
}

// Two searches on one Session recycle the context's arena: the second
// search reuses the retained block instead of growing the reservation.
TEST(ServiceStressTest, SessionRecyclesArenaAcrossSearches) {
  Env env;
  core::Session session(&env.engine, &env.graph, {"Name", "Director"});
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  const Arena& arena = session.context().arena();
  const uint64_t allocs_after_first = arena.total_allocations();
  const uint64_t resets_after_first = arena.num_resets();
  const size_t reserved_after_first = arena.bytes_reserved();
  EXPECT_GT(allocs_after_first, 0u);
  EXPECT_GT(reserved_after_first, 0u);

  session.Reset();
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  EXPECT_GT(arena.num_resets(), resets_after_first);
  EXPECT_GT(arena.total_allocations(), allocs_after_first);
  // Identical search, recycled block: the reservation must not grow.
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_first);
}

}  // namespace
}  // namespace mweaver::service
