// Tests for the service layer: SessionManager lifecycle and eviction, the
// LRU result cache, deadline/backpressure semantics of MappingService, and
// the bounds-hardened core::Session accessors the service relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/sample_search.h"
#include "core/session.h"
#include "graph/schema_graph.h"
#include "service/mapping_service.h"
#include "service/metrics.h"
#include "service/result_cache.h"
#include "service/session_manager.h"
#include "test_util.h"
#include "text/fulltext_engine.h"

namespace mweaver::service {
namespace {

using core::SearchClock;
using core::SearchOptions;
using core::SessionState;

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : snapshot_(PublishFigure2(&catalog_)),
        engine_(snapshot_->engine()),
        graph_(snapshot_->graph()) {}

  static catalog::SnapshotPtr PublishFigure2(catalog::Catalog* cat) {
    return cat->Publish(kDefaultTenant, testing::MakeFigure2Db())
        .ValueOrDie();
  }

  catalog::Catalog catalog_;
  catalog::SnapshotPtr snapshot_;
  // Convenience aliases into the snapshot for tests that drive the core
  // layers directly.
  const text::FullTextEngine& engine_;
  const graph::SchemaGraph& graph_;
};

// ------------------------------------------------------- SessionManager --

TEST_F(ServiceTest, SessionIdsAreMonotonicAndNeverReused) {
  SessionManager manager;
  const SessionId a = *manager.Create(snapshot_, {"Name", "Director"});
  const SessionId b = *manager.Create(snapshot_, {"Name", "Director"});
  EXPECT_LT(a, b);
  ASSERT_TRUE(manager.Close(a).ok());
  const SessionId c = *manager.Create(snapshot_, {"Name", "Director"});
  EXPECT_LT(b, c);  // closing never recycles ids
  EXPECT_EQ(manager.size(), 2u);
}

TEST_F(ServiceTest, WithSessionRunsUnderTheSessionAndRefreshesIdleClock) {
  SessionManager manager;
  const SessionId id = *manager.Create(snapshot_, {"Name", "Director"});
  Status status = manager.WithSession(id, [](core::Session& session) {
    return session.Input(0, 0, "Avatar");
  });
  EXPECT_TRUE(status.ok());
  status = manager.WithSession(id, [](core::Session& session) {
    EXPECT_EQ(session.cell(0, 0), "Avatar");
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
}

TEST_F(ServiceTest, UnknownAndClosedSessionsReturnNotFound) {
  SessionManager manager;
  EXPECT_TRUE(manager
                  .WithSession(42, [](core::Session&) {
                    ADD_FAILURE() << "must not run";
                    return Status::OK();
                  })
                  .IsNotFound());
  const SessionId id = *manager.Create(snapshot_, {"Name"});
  ASSERT_TRUE(manager.Close(id).ok());
  EXPECT_TRUE(manager.Close(id).IsNotFound());
  EXPECT_TRUE(
      manager.WithSession(id, [](core::Session&) { return Status::OK(); })
          .IsNotFound());
}

TEST_F(ServiceTest, CreateFailsBeyondMaxSessions) {
  SessionManagerOptions options;
  options.max_sessions = 2;
  SessionManager manager(options);
  ASSERT_TRUE(manager.Create(snapshot_, {"Name"}).ok());
  ASSERT_TRUE(manager.Create(snapshot_, {"Name"}).ok());
  EXPECT_TRUE(manager.Create(snapshot_, {"Name"}).status().IsResourceExhausted());
}

TEST_F(ServiceTest, EvictIdleReclaimsOnlyExpiredSessions) {
  SessionManagerOptions options;
  options.idle_ttl = std::chrono::milliseconds(0);  // everything is idle
  SessionManager manager(options);
  const SessionId a = *manager.Create(snapshot_, {"Name"});
  const SessionId b = *manager.Create(snapshot_, {"Name"});
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_EQ(manager.EvictIdle(), 2u);
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_TRUE(
      manager.WithSession(a, [](core::Session&) { return Status::OK(); })
          .IsNotFound());
  EXPECT_TRUE(
      manager.WithSession(b, [](core::Session&) { return Status::OK(); })
          .IsNotFound());

  // A long TTL keeps fresh sessions alive.
  SessionManagerOptions fresh_options;
  fresh_options.idle_ttl = std::chrono::hours(1);
  SessionManager fresh(fresh_options);
  (void)*fresh.Create(snapshot_, {"Name"});
  EXPECT_EQ(fresh.EvictIdle(), 0u);
  EXPECT_EQ(fresh.size(), 1u);
}

// ----------------------------------------------- Session accessor bounds --

TEST_F(ServiceTest, SessionCellOutOfRangeReadsAsEmpty) {
  core::Session session(&engine_, &graph_, {"Name", "Director"});
  EXPECT_EQ(session.cell(0, 0), "");
  EXPECT_EQ(session.cell(99, 99), "");
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  EXPECT_EQ(session.cell(0, 0), "Avatar");
  EXPECT_EQ(session.cell(0, 5), "");  // column beyond the grid row
}

TEST_F(ServiceTest, SessionBestBeforeConvergenceIsEmptyNotFatal) {
  core::Session session(&engine_, &graph_, {"Name", "Director"});
  const core::CandidateMapping& none = session.best();
  EXPECT_EQ(none.support, 0u);
  EXPECT_EQ(none.score, 0.0);
  EXPECT_TRUE(none.mapping.vertices().empty());

  // After a search with several surviving candidates (not converged),
  // best() reports the leader rather than aborting.
  ASSERT_TRUE(session.Input(0, 0, "Avatar").ok());
  ASSERT_TRUE(session.Input(0, 1, "James Cameron").ok());
  ASSERT_EQ(session.state(), SessionState::kRefining);
  EXPECT_GT(session.best().support, 0u);
}

// ------------------------------------------------------------- Deadline --

TEST_F(ServiceTest, ExpiredDeadlineSearchReturnsPromptlyAndTruncated) {
  SearchOptions options;
  core::ExecutionContext ctx;
  ctx.set_deadline(SearchClock::now() - std::chrono::milliseconds(1));
  const auto started = SearchClock::now();
  auto result = core::SampleSearch(engine_, graph_,
                                   {"Avatar", "James Cameron"}, options, ctx);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(SearchClock::now() - started)
          .count();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.truncated);
  EXPECT_TRUE(result->stats.deadline_expired);
  EXPECT_TRUE(result->candidates.empty());
  EXPECT_LT(elapsed_ms, 250.0);  // prompt even on a loaded CI machine
}

TEST_F(ServiceTest, CancellationTokenStopsTheSearch) {
  SearchOptions options;
  std::atomic<bool> cancel{true};  // already cancelled
  core::ExecutionContext ctx;
  ctx.set_cancel_token(&cancel);
  auto result = core::SampleSearch(engine_, graph_,
                                   {"Avatar", "James Cameron"}, options, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.truncated);
  EXPECT_TRUE(result->stats.deadline_expired);
}

TEST_F(ServiceTest, NoDeadlineSearchIsNotTruncated) {
  auto result =
      core::SampleSearch(engine_, graph_, {"Avatar", "James Cameron"}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.truncated);
  EXPECT_FALSE(result->stats.deadline_expired);
  EXPECT_FALSE(result->candidates.empty());
}

TEST_F(ServiceTest, ServiceRequestWithExpiredDeadlineAnswersImmediately) {
  ServiceOptions options;
  options.num_workers = 1;
  MappingService svc(&catalog_, options);
  const SessionId id = *svc.CreateSession({"Name", "Director"});

  InputRequest request;
  request.session_id = id;
  request.value = "Avatar";
  // A negative budget is expired the moment it is admitted.
  request.deadline = std::chrono::milliseconds(-1);
  RequestResult result = svc.Call(request);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.outcome, RequestOutcome::kTruncated);
  EXPECT_TRUE(result.truncated);
}

// A pruning keystroke whose deadline expires inside PruneByStructure keeps
// its unexamined candidates. That answer is partial, so the service must
// report it kTruncated, not kOk.
//
// Source: 100 films and 100 people. Person 99 ("ann smith") directed film
// 99 and person 98 ("bob smith") wrote it; everyone else is "ann doe k"
// and linked to nothing. First row ("film 99", "smith") keeps the director
// and writer mappings. Second row ("film", "ann") matches 100 films and 99
// people, so each structure check walks ~100 enumeration nodes; the uncut
// pass drops the writer mapping (bob is not an "ann").
storage::Database MakeLongPruneDb() {
  using storage::RelationSchema;
  using testing::AddRow;
  using testing::I;
  using testing::IdAttr;
  using testing::S;
  using testing::StrAttr;
  storage::Database db("long_prune");
  db.AddRelation(RelationSchema("movie", {IdAttr("mid"), StrAttr("title")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("person", {IdAttr("pid"), StrAttr("name")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("director", {IdAttr("mid"), IdAttr("pid")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("writer", {IdAttr("mid"), IdAttr("pid")}))
      .ValueOrDie();
  db.AddForeignKey("director", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("director", "pid", "person", "pid").ValueOrDie();
  db.AddForeignKey("writer", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("writer", "pid", "person", "pid").ValueOrDie();
  for (int k = 0; k < 100; ++k) {
    AddRow(&db, "movie", {I(k), S("film " + std::to_string(k))});
    const std::string name = k == 99   ? "ann smith"
                             : k == 98 ? "bob smith"
                                       : "ann doe " + std::to_string(k);
    AddRow(&db, "person", {I(k), S(name)});
  }
  AddRow(&db, "director", {I(99), I(99)});
  AddRow(&db, "writer", {I(99), I(98)});
  return db;
}

// Clock for the session under test: the first read after it is installed
// sees the real time, every later read sees the end of time.
std::atomic<int> g_long_prune_clock_reads{0};
SearchClock::time_point ExpireAfterFirstRead() {
  return g_long_prune_clock_reads.fetch_add(1) == 0
             ? SearchClock::now()
             : SearchClock::time_point::max();
}

TEST(ServicePruneDeadlineTest, DeadlineCutPruningPassIsTruncated) {
  catalog::Catalog catalog;
  ASSERT_TRUE(catalog.Publish("hub", MakeLongPruneDb()).ok());
  ServiceOptions options;
  options.num_workers = 1;
  options.search_parallelism = 1;  // one context: a deterministic poll order
  MappingService svc(&catalog, options);

  const auto type = [&](SessionId id, size_t row, size_t col,
                        const char* value) {
    InputRequest request;
    request.session_id = id;
    request.row = row;
    request.col = col;
    request.value = value;
    request.deadline = std::chrono::seconds(30);
    return svc.Call(request);
  };
  const auto candidates = [&](SessionId id) {
    std::set<std::string> out;
    EXPECT_TRUE(svc.sessions()
                    .WithSession(id,
                                 [&](core::Session& session) {
                                   for (const auto& c : session.candidates()) {
                                     out.insert(c.mapping.Canonical());
                                   }
                                   return Status::OK();
                                 })
                    .ok());
    return out;
  };
  // Both sessions type the same cells; only the second one's last pruning
  // pass runs out of time.
  SessionId ids[2];
  for (SessionId& id : ids) {
    id = *svc.CreateSession("hub", {"Title", "Name"});
    ASSERT_EQ(type(id, 0, 0, "film 99").outcome, RequestOutcome::kOk);
    ASSERT_EQ(type(id, 0, 1, "smith").outcome, RequestOutcome::kOk);
    ASSERT_EQ(type(id, 1, 0, "film").outcome, RequestOutcome::kOk);
  }
  const std::set<std::string> before = candidates(ids[1]);
  ASSERT_GE(before.size(), 2u);

  const RequestResult uncut = type(ids[0], 1, 1, "ann");
  EXPECT_EQ(uncut.outcome, RequestOutcome::kOk);
  EXPECT_FALSE(uncut.truncated);
  const std::set<std::string> uncut_set = candidates(ids[0]);
  ASSERT_LT(uncut_set.size(), before.size());  // the writer mapping fell

  // PruneByAttribute polls once per candidate, fewer than the context's
  // clock-read stride, so its only clock read is the first one: it runs to
  // the end, and the deadline expires at the next read, inside the
  // structure checks.
  ASSERT_LT(before.size(), core::ExecutionContext::kStopPollStride);
  ASSERT_TRUE(svc.sessions()
                  .WithSession(ids[1],
                               [](core::Session& session) {
                                 session.context().SetClockForTesting(
                                     &ExpireAfterFirstRead);
                                 return Status::OK();
                               })
                  .ok());
  const RequestResult cut = type(ids[1], 1, 1, "ann");
  EXPECT_GE(g_long_prune_clock_reads.load(), 2);
  EXPECT_TRUE(cut.status.ok());
  EXPECT_EQ(cut.outcome, RequestOutcome::kTruncated);
  EXPECT_TRUE(cut.truncated);
  const std::set<std::string> cut_set = candidates(ids[1]);
  EXPECT_GT(cut_set.size(), uncut_set.size());
  for (const std::string& mapping : uncut_set) {
    EXPECT_EQ(cut_set.count(mapping), 1u) << mapping;
  }
  EXPECT_EQ(svc.SnapshotMetrics().requests_truncated, 1u);
}

// ---------------------------------------------------------- ResultCache --

TEST_F(ServiceTest, CacheKeyNormalizesCaseButNotWhitespace) {
  const SearchOptions options;
  EXPECT_EQ(ResultCache::MakeKey("t", 1, 0, 1, {"Avatar", "CAMERON"}, options),
            ResultCache::MakeKey("t", 1, 0, 1, {"avatar", "cameron"}, options));
  EXPECT_NE(ResultCache::MakeKey("t", 1, 0, 1, {"Avatar "}, options),
            ResultCache::MakeKey("t", 1, 0, 1, {"Avatar"}, options));
  EXPECT_NE(ResultCache::MakeKey("t", 1, 0, 1, {"a", "b"}, options),
            ResultCache::MakeKey("t", 1, 0, 1, {"ab"}, options));
  SearchOptions other = options;
  other.pmnj = 3;  // different search space -> different key
  EXPECT_NE(ResultCache::MakeKey("t", 1, 0, 1, {"Avatar"}, options),
            ResultCache::MakeKey("t", 1, 0, 1, {"Avatar"}, other));
  other = options;
  other.num_threads = 8;  // timing-only knob -> same key
  EXPECT_EQ(ResultCache::MakeKey("t", 1, 0, 1, {"Avatar"}, options),
            ResultCache::MakeKey("t", 1, 0, 1, {"Avatar"}, other));
}

TEST_F(ServiceTest, CacheKeyIsTenantAndEpochScoped) {
  const SearchOptions options;
  // Identical queries on different tenants never share an entry.
  EXPECT_NE(ResultCache::MakeKey("alpha", 1, 0, 1, {"Avatar"}, options),
            ResultCache::MakeKey("beta", 1, 0, 1, {"Avatar"}, options));
  // A republish bumps the epoch, invalidating every prior key.
  EXPECT_NE(ResultCache::MakeKey("alpha", 1, 0, 1, {"Avatar"}, options),
            ResultCache::MakeKey("alpha", 2, 0, 1, {"Avatar"}, options));
  // A streaming update bumps only the minor epoch — also a fresh key, and
  // distinct from the next full epoch.
  EXPECT_NE(ResultCache::MakeKey("alpha", 1, 1, 1, {"Avatar"}, options),
            ResultCache::MakeKey("alpha", 1, 0, 1, {"Avatar"}, options));
  EXPECT_NE(ResultCache::MakeKey("alpha", 1, 1, 1, {"Avatar"}, options),
            ResultCache::MakeKey("alpha", 2, 0, 1, {"Avatar"}, options));
  // Tenant names are length-prefixed, so crafted names cannot splice into
  // a different tenant's key space.
  EXPECT_NE(ResultCache::MakeKey("a;e=1", 1, 0, 1, {"x"}, options),
            ResultCache::MakeKey("a", 1, 0, 1, {"x"}, options));
}

TEST_F(ServiceTest, EvictTenantEntriesDropsOnlyThatTenant) {
  ResultCache cache(8);
  const SearchOptions options;
  core::SearchResult result;
  cache.Insert(ResultCache::MakeKey("alpha", 1, 0, 1, {"a"}, options), result);
  cache.Insert(ResultCache::MakeKey("alpha", 1, 0, 1, {"b"}, options), result);
  cache.Insert(ResultCache::MakeKey("beta", 1, 0, 1, {"a"}, options), result);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.EvictTenantEntries("alpha"), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(
      cache.Lookup(ResultCache::MakeKey("beta", 1, 0, 1, {"a"}, options))
          .has_value());
  EXPECT_EQ(cache.EvictTenantEntries("alpha"), 0u);
}

TEST_F(ServiceTest, IdenticalQueriesOnDifferentTenantsNeverShareCache) {
  ASSERT_TRUE(catalog_.Publish("other", testing::MakeFigure2Db()).ok());
  MappingService svc(&catalog_);
  const auto first_row = [&](std::string_view tenant) {
    const SessionId id = *svc.CreateSession(tenant, {"Name"});
    InputRequest request;
    request.session_id = id;
    request.value = "Avatar";
    return svc.Call(request);
  };
  RequestResult a = first_row(kDefaultTenant);
  ASSERT_TRUE(a.status.ok()) << a.status;
  EXPECT_FALSE(a.cache_hit);
  // Same tenant again: served from cache.
  RequestResult a2 = first_row(kDefaultTenant);
  ASSERT_TRUE(a2.status.ok()) << a2.status;
  EXPECT_TRUE(a2.cache_hit);
  // Different tenant, identical data and query: MUST miss.
  RequestResult b = first_row("other");
  ASSERT_TRUE(b.status.ok()) << b.status;
  EXPECT_FALSE(b.cache_hit);
}

TEST_F(ServiceTest, RepublishInvalidatesCachedResultsViaEpoch) {
  MappingService svc(&catalog_);
  const auto first_row = [&]() {
    const SessionId id = *svc.CreateSession({"Name"});
    InputRequest request;
    request.session_id = id;
    request.value = "Avatar";
    return svc.Call(request);
  };
  RequestResult before = first_row();
  ASSERT_TRUE(before.status.ok()) << before.status;
  EXPECT_FALSE(before.cache_hit);
  RequestResult warm = first_row();
  ASSERT_TRUE(warm.status.ok()) << warm.status;
  EXPECT_TRUE(warm.cache_hit);

  // Republish the tenant: sessions created afterwards pin the new epoch,
  // so the warm entry from the old epoch can never be returned.
  ASSERT_TRUE(catalog_.Publish(kDefaultTenant, testing::MakeFigure2Db()).ok());
  RequestResult after = first_row();
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_FALSE(after.cache_hit);
}

TEST_F(ServiceTest, StreamingUpdateInvalidatesCachedResultsViaMinorEpoch) {
  MappingService svc(&catalog_);
  const auto first_row = [&]() {
    const SessionId id = *svc.CreateSession({"Name"});
    InputRequest request;
    request.session_id = id;
    request.value = "Avatar";
    return svc.Call(request);
  };
  RequestResult before = first_row();
  ASSERT_TRUE(before.status.ok()) << before.status;
  EXPECT_FALSE(before.cache_hit);
  RequestResult warm = first_row();
  ASSERT_TRUE(warm.status.ok()) << warm.status;
  EXPECT_TRUE(warm.cache_hit);

  // A streaming update through the service's admission path: no full
  // republish, but the installed delta carries a fresh minor epoch.
  UpdateRequest update;
  update.tenant = std::string(kDefaultTenant);
  update.batch.inserts.push_back(catalog::RowInsert{
      "movie", {testing::I(50), testing::S("Fresh Movie")}});
  RequestResult applied = svc.ApplyUpdate(update);
  ASSERT_TRUE(applied.status.ok()) << applied.status;
  EXPECT_EQ(applied.outcome, RequestOutcome::kOk);
  EXPECT_EQ(applied.update_minor_epoch, 1u);
  ASSERT_EQ(applied.inserted_rows.size(), 1u);

  // Sessions created afterwards pin the delta: the warm epoch-N.0 entry
  // can never serve an epoch-N.1 query.
  RequestResult after = first_row();
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_FALSE(after.cache_hit);
  // And the new minor epoch warms its own key space as usual.
  RequestResult rewarmed = first_row();
  ASSERT_TRUE(rewarmed.status.ok()) << rewarmed.status;
  EXPECT_TRUE(rewarmed.cache_hit);

  const MetricsSnapshot metrics = svc.SnapshotMetrics();
  EXPECT_EQ(metrics.updates_ok, 1u);
  EXPECT_EQ(metrics.updates_failed, 0u);
  EXPECT_EQ(metrics.update_rows_inserted, 1u);
}

TEST_F(ServiceTest, StreamingUpdateLeavesUnrelatedTenantCacheWarm) {
  ASSERT_TRUE(catalog_.Publish("other", testing::MakeFigure2Db()).ok());
  MappingService svc(&catalog_);
  const auto first_row = [&](std::string_view tenant) {
    const SessionId id = *svc.CreateSession(tenant, {"Name"});
    InputRequest request;
    request.session_id = id;
    request.value = "Avatar";
    return svc.Call(request);
  };
  // Warm both tenants.
  ASSERT_TRUE(first_row(kDefaultTenant).status.ok());
  ASSERT_TRUE(first_row("other").status.ok());
  ASSERT_TRUE(first_row("other").cache_hit);

  // Update only the default tenant.
  UpdateRequest update;
  update.tenant = std::string(kDefaultTenant);
  update.batch.inserts.push_back(catalog::RowInsert{
      "movie", {testing::I(51), testing::S("Another Fresh Movie")}});
  RequestResult applied = svc.ApplyUpdate(update);
  ASSERT_TRUE(applied.status.ok()) << applied.status;

  // The updated tenant's warm entry is dead (minor epoch moved on)...
  EXPECT_FALSE(first_row(kDefaultTenant).cache_hit);
  // ...while the unrelated tenant still serves from cache.
  EXPECT_TRUE(first_row("other").cache_hit);
}

TEST_F(ServiceTest, PinnedSessionServesFrozenEpochAcrossUpdates) {
  MappingService svc(&catalog_);
  // Completes a session's first sample row {Avatar, James Cameron}; the
  // search runs on the second keystroke.
  const auto type_first_row = [&](SessionId id) {
    InputRequest request;
    request.session_id = id;
    request.value = "Avatar";
    RequestResult r = svc.Call(request);
    EXPECT_TRUE(r.status.ok()) << r.status;
    request.col = 1;
    request.value = "James Cameron";
    return svc.Call(request);
  };
  const SessionId pinned = *svc.CreateSession({"Name", "Director"});
  RequestResult first = type_first_row(pinned);
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_GT(first.num_candidates, 0u);

  // Delete the Avatar row out from under the session.
  UpdateRequest update;
  update.tenant = std::string(kDefaultTenant);
  update.batch.deletes.push_back(catalog::RowDelete{"movie", 0});
  RequestResult applied = svc.ApplyUpdate(update);
  ASSERT_TRUE(applied.status.ok()) << applied.status;
  EXPECT_EQ(applied.update_minor_epoch, 1u);

  // The pinned session keeps pruning against its frozen snapshot: the
  // goal-target row still weaves through the tombstoned-elsewhere Avatar
  // row, so candidates survive mid-update.
  InputRequest prune_request;
  prune_request.session_id = pinned;
  prune_request.row = 1;
  prune_request.value = "Harry Potter";
  RequestResult prune = svc.Call(prune_request);
  ASSERT_TRUE(prune.status.ok()) << prune.status;
  prune_request.col = 1;
  prune_request.value = "David Yates";
  RequestResult second = svc.Call(prune_request);
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_GT(second.num_candidates, 0u);

  // A session created after the update pins the delta, where the Avatar
  // row is gone: the same first row finds strictly less.
  const SessionId fresh = *svc.CreateSession({"Name", "Director"});
  RequestResult post_delete = type_first_row(fresh);
  ASSERT_TRUE(post_delete.status.ok()) << post_delete.status;
  EXPECT_FALSE(post_delete.cache_hit);
  EXPECT_LT(post_delete.num_candidates, first.num_candidates);
}

TEST_F(ServiceTest, UpdateFailuresSurfaceAndCountWithoutSideEffects) {
  MappingService svc(&catalog_);
  // Empty batch: rejected before anything runs.
  UpdateRequest empty;
  empty.tenant = std::string(kDefaultTenant);
  RequestResult rejected = svc.ApplyUpdate(empty);
  EXPECT_FALSE(rejected.status.ok());
  EXPECT_EQ(rejected.outcome, RequestOutcome::kFailed);

  // Unknown relation: NotFound, nothing installed.
  UpdateRequest bogus;
  bogus.tenant = std::string(kDefaultTenant);
  bogus.batch.deletes.push_back(catalog::RowDelete{"no_such_relation", 0});
  RequestResult failed = svc.ApplyUpdate(bogus);
  EXPECT_FALSE(failed.status.ok());
  EXPECT_EQ(failed.outcome, RequestOutcome::kFailed);
  EXPECT_EQ(failed.update_minor_epoch, 0u);

  const MetricsSnapshot metrics = svc.SnapshotMetrics();
  EXPECT_EQ(metrics.updates_ok, 0u);
  EXPECT_EQ(metrics.updates_failed, 2u);
  EXPECT_EQ(metrics.update_rows_inserted, 0u);
  EXPECT_EQ(metrics.update_rows_deleted, 0u);
  // The tenant still serves its original publish.
  EXPECT_EQ(catalog_.Pin(kDefaultTenant).ValueOrDie()->minor_epoch(), 0u);
}

TEST_F(ServiceTest, CacheLruEvictsOldestAndCountsHits) {
  ResultCache cache(2);
  core::SearchResult result;
  cache.Insert("a", result);
  cache.Insert("b", result);
  EXPECT_TRUE(cache.Lookup("a").has_value());  // refreshes "a"
  cache.Insert("c", result);                   // evicts "b"
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(ServiceTest, CacheCountsLruEvictionsApartFromTenantPurges) {
  ResultCache cache(1);
  const SearchOptions options;
  core::SearchResult result;
  const std::string first = ResultCache::MakeKey("t1", 1, 0, 1, {"a"}, options);
  const std::string second =
      ResultCache::MakeKey("t;2", 1, 0, 1, {"b"}, options);
  EXPECT_EQ(ResultCache::TenantOfKey(second), "t;2");
  EXPECT_EQ(ResultCache::TenantOfKey("b"), "");
  EXPECT_FALSE(cache.Insert(first, result).has_value());
  EXPECT_FALSE(cache.Insert(first, result).has_value());  // a refresh
  // The second key pushes the first one out: an eviction of t1's entry.
  EXPECT_EQ(cache.Insert(second, result), std::optional<std::string>("t1"));
  EXPECT_FALSE(cache.Lookup(first).has_value());
  // A tenant purge reports its own count; it is not an LRU eviction, so the
  // next insert into the emptied cache evicts nothing.
  EXPECT_EQ(cache.EvictTenantEntries("t;2"), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Insert(first, result).has_value());
}

TEST_F(ServiceTest, ServiceReportsCacheEvictionsPerTenant) {
  ServiceOptions options;
  options.cache_capacity = 1;
  MappingService svc(&catalog_, options);
  for (const char* title : {"Avatar", "Big Fish"}) {
    const SessionId id = *svc.CreateSession({"Name"});
    InputRequest request;
    request.session_id = id;
    request.value = title;
    ASSERT_EQ(svc.Call(request).outcome, RequestOutcome::kOk);
  }
  EXPECT_EQ(svc.SnapshotMetrics().cache_evictions, 1u);
  EXPECT_EQ(svc.PerTenantMetrics().at(std::string(kDefaultTenant))
                .cache_evictions,
            1u);
  EXPECT_NE(svc.SnapshotMetrics().ToJson().find("\"cache_evictions\":1"),
            std::string::npos);
}

TEST_F(ServiceTest, CacheRejectsTruncatedResults) {
  ResultCache cache(4);
  core::SearchResult truncated;
  truncated.stats.truncated = true;
  cache.Insert("partial", truncated);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("partial").has_value());
}

TEST_F(ServiceTest, CachedAndFreshSearchesReturnIdenticalCandidates) {
  ServiceOptions options;
  options.num_workers = 2;
  MappingService svc(&catalog_, options);

  const auto run_first_row = [&](const char* name, const char* director) {
    const SessionId id = *svc.CreateSession({"Name", "Director"});
    InputRequest request;
    request.session_id = id;
    request.value = name;
    RequestResult r0 = svc.Call(request);
    EXPECT_TRUE(r0.status.ok()) << r0.status;
    request.col = 1;
    request.value = director;
    return std::make_pair(id, svc.Call(request));
  };

  auto [fresh_id, fresh] = run_first_row("Avatar", "James Cameron");
  ASSERT_TRUE(fresh.status.ok()) << fresh.status;
  EXPECT_FALSE(fresh.cache_hit);
  auto [cached_id, cached] = run_first_row("AVATAR", "james cameron");
  ASSERT_TRUE(cached.status.ok()) << cached.status;
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(fresh.num_candidates, cached.num_candidates);

  // The ranked candidate lists must be identical, mapping by mapping.
  std::vector<std::string> fresh_forms, cached_forms;
  std::vector<double> fresh_scores, cached_scores;
  ASSERT_TRUE(svc.sessions()
                  .WithSession(fresh_id,
                               [&](core::Session& session) {
                                 for (const auto& c : session.candidates()) {
                                   fresh_forms.push_back(
                                       c.mapping.Canonical());
                                   fresh_scores.push_back(c.score);
                                 }
                                 return Status::OK();
                               })
                  .ok());
  ASSERT_TRUE(svc.sessions()
                  .WithSession(cached_id,
                               [&](core::Session& session) {
                                 for (const auto& c : session.candidates()) {
                                   cached_forms.push_back(
                                       c.mapping.Canonical());
                                   cached_scores.push_back(c.score);
                                 }
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_FALSE(fresh_forms.empty());
  EXPECT_EQ(fresh_forms, cached_forms);
  EXPECT_EQ(fresh_scores, cached_scores);

  const MetricsSnapshot snapshot = svc.SnapshotMetrics();
  EXPECT_EQ(snapshot.cache_hits, 1u);
  EXPECT_EQ(snapshot.cache_misses, 1u);
  EXPECT_GT(snapshot.CacheHitRate(), 0.0);
}

// --------------------------------------------------------- Backpressure --

TEST_F(ServiceTest, FullQueueRejectsWithOverloadNotBlocking) {
  ServiceOptions options;
  options.num_workers = 0;  // nothing drains: deterministic overload
  options.max_queue_depth = 2;
  options.max_tenant_queue_share = 1.0;  // exercise the GLOBAL bound only
  std::vector<Status> callback_statuses;
  {
    MappingService svc(&catalog_, options);
    const SessionId id = *svc.CreateSession({"Name", "Director"});
    InputRequest request;
    request.session_id = id;
    request.value = "Avatar";
    const auto record = [&](RequestResult r) {
      callback_statuses.push_back(r.status);
    };
    EXPECT_TRUE(svc.Enqueue(request, record).ok());
    EXPECT_TRUE(svc.Enqueue(request, record).ok());
    Status overflow = svc.Enqueue(request, record);
    EXPECT_TRUE(overflow.IsResourceExhausted()) << overflow;

    const MetricsSnapshot snapshot = svc.SnapshotMetrics();
    EXPECT_EQ(snapshot.requests_overloaded, 1u);
    EXPECT_EQ(snapshot.queue_high_water, 2u);
    // Destructor fails the two admitted-but-unprocessed requests.
  }
  ASSERT_EQ(callback_statuses.size(), 2u);
  EXPECT_TRUE(callback_statuses[0].IsInternal());
  EXPECT_TRUE(callback_statuses[1].IsInternal());
}

TEST_F(ServiceTest, RequestForUnknownSessionFails) {
  MappingService svc(&catalog_);
  InputRequest request;
  request.session_id = 999;
  request.value = "Avatar";
  RequestResult result = svc.Call(request);
  EXPECT_TRUE(result.status.IsNotFound());
  EXPECT_EQ(result.outcome, RequestOutcome::kFailed);
}

TEST_F(ServiceTest, EndToEndConvergenceThroughTheService) {
  MappingService svc(&catalog_);
  const SessionId id = *svc.CreateSession({"Name", "Director"});
  const std::vector<std::tuple<size_t, size_t, const char*>> keystrokes{
      {0, 0, "Avatar"},
      {0, 1, "James Cameron"},
      {1, 0, "Harry Potter"},
      {1, 1, "David Yates"},
  };
  RequestResult last;
  for (const auto& [row, col, value] : keystrokes) {
    InputRequest request;
    request.session_id = id;
    request.row = row;
    request.col = col;
    request.value = value;
    last = svc.Call(request);
    ASSERT_TRUE(last.status.ok()) << last.status;
  }
  EXPECT_EQ(last.state, SessionState::kConverged);
  EXPECT_EQ(last.num_candidates, 1u);
  const MetricsSnapshot snapshot = svc.SnapshotMetrics();
  EXPECT_EQ(snapshot.requests_ok, 4u);
  EXPECT_EQ(snapshot.requests_failed, 0u);
}

// ------------------------------------------------- Tenant admission/metrics --

TEST_F(ServiceTest, HotTenantCannotStarveTheQueueForOthers) {
  ASSERT_TRUE(catalog_.Publish("other", testing::MakeFigure2Db()).ok());
  ServiceOptions options;
  options.num_workers = 0;  // nothing drains: queue occupancy is exact
  options.max_queue_depth = 4;
  options.max_tenant_queue_share = 0.5;  // per-tenant cap = 2
  {
    MappingService svc(&catalog_, options);
    EXPECT_EQ(svc.TenantQueueCap(), 2u);
    const SessionId hot = *svc.CreateSession({"Name"});
    const SessionId cold = *svc.CreateSession("other", {"Name"});
    InputRequest request;
    request.session_id = hot;
    request.value = "Avatar";
    const auto sink = [](RequestResult) {};
    EXPECT_TRUE(svc.Enqueue(request, sink).ok());
    EXPECT_TRUE(svc.Enqueue(request, sink).ok());
    // The hot tenant hits its share while the global queue still has room.
    Status rejected = svc.Enqueue(request, sink);
    EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected;
    // The other tenant still has headroom.
    request.session_id = cold;
    EXPECT_TRUE(svc.Enqueue(request, sink).ok());
    EXPECT_TRUE(svc.Enqueue(request, sink).ok());

    const auto per_tenant = svc.PerTenantMetrics();
    ASSERT_TRUE(per_tenant.count(std::string(kDefaultTenant)));
    EXPECT_EQ(per_tenant.at(std::string(kDefaultTenant)).share_rejections,
              1u);
    EXPECT_EQ(per_tenant.at("other").share_rejections, 0u);
    // Destructor fails the admitted-but-unprocessed requests.
  }
}

TEST_F(ServiceTest, TinyQueueShareStillAdmitsOneRequestPerTenant) {
  // Regression guard: share * depth below one slot (0.2 * 4 = 0.8) must
  // clamp to a single queued slot, not truncate to zero — a zero cap
  // would reject every request of every tenant on a small queue.
  ServiceOptions options;
  options.num_workers = 0;  // nothing drains: queue occupancy is exact
  options.max_queue_depth = 4;
  options.max_tenant_queue_share = 0.2;
  {
    MappingService svc(&catalog_, options);
    EXPECT_EQ(svc.TenantQueueCap(), 1u);
    const SessionId id = *svc.CreateSession({"Name"});
    InputRequest request;
    request.session_id = id;
    request.value = "Avatar";
    const auto sink = [](RequestResult) {};
    // Exactly one slot: the first enqueue is admitted, the second is
    // share-rejected.
    EXPECT_TRUE(svc.Enqueue(request, sink).ok());
    EXPECT_TRUE(svc.Enqueue(request, sink).IsResourceExhausted());
    // Destructor fails the admitted-but-unprocessed request.
  }
}

TEST_F(ServiceTest, PerTenantMetricsRollUpByTenant) {
  ASSERT_TRUE(catalog_.Publish("other", testing::MakeFigure2Db()).ok());
  MappingService svc(&catalog_);
  const auto run = [&](std::string_view tenant) {
    const SessionId id = *svc.CreateSession(tenant, {"Name"});
    InputRequest request;
    request.session_id = id;
    request.value = "Avatar";
    RequestResult result = svc.Call(request);
    ASSERT_TRUE(result.status.ok()) << result.status;
  };
  run(kDefaultTenant);
  run(kDefaultTenant);
  run("other");

  const auto per_tenant = svc.PerTenantMetrics();
  ASSERT_TRUE(per_tenant.count(std::string(kDefaultTenant)));
  ASSERT_TRUE(per_tenant.count("other"));
  const TenantMetricsSnapshot& hot =
      per_tenant.at(std::string(kDefaultTenant));
  EXPECT_EQ(hot.sessions_created, 2u);
  EXPECT_EQ(hot.requests_ok, 2u);
  EXPECT_EQ(hot.cache_misses, 1u);
  EXPECT_EQ(hot.cache_hits, 1u);  // second identical first row
  const TenantMetricsSnapshot& cold = per_tenant.at("other");
  EXPECT_EQ(cold.sessions_created, 1u);
  EXPECT_EQ(cold.requests_ok, 1u);
  EXPECT_EQ(cold.cache_misses, 1u);
  EXPECT_EQ(cold.cache_hits, 0u);

  const std::string json = svc.PerTenantMetricsJson();
  EXPECT_NE(json.find("\"default\""), std::string::npos);
  EXPECT_NE(json.find("\"other\""), std::string::npos);
}

TEST(ServiceTenantEvictionTest, IdleTenantsAreEvictedAndCachePurged) {
  catalog::CatalogOptions catalog_options;
  catalog_options.idle_ttl = std::chrono::milliseconds(0);
  catalog::Catalog catalog(catalog_options);
  ASSERT_TRUE(
      catalog.Publish(kDefaultTenant, testing::MakeFigure2Db()).ok());
  MappingService svc(&catalog);
  const SessionId id = *svc.CreateSession({"Name"});
  InputRequest request;
  request.session_id = id;
  request.value = "Avatar";
  ASSERT_TRUE(svc.Call(request).status.ok());
  EXPECT_GT(svc.cache().size(), 0u);
  ASSERT_TRUE(svc.CloseSession(id).ok());

  EXPECT_EQ(svc.EvictIdleTenants(), 1u);
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(svc.cache().size(), 0u);  // tenant entries purged with it
  // New sessions on the evicted tenant now fail cleanly.
  EXPECT_TRUE(svc.CreateSession({"Name"}).status().IsNotFound());
}

TEST(ServiceTenantEvictionTest, EvictionPurgeSparesARacingRepublish) {
  // Regression guard for the eviction/republish race: the sweep evicts
  // tenant "t" while it serves epoch E1, but before the cache purge runs
  // a republish installs E2 and repopulates entries. Purging by name
  // alone would drop the republished (perfectly valid) entries; the purge
  // is bounded by the epoch the eviction observed, and catalog epochs are
  // globally monotonic, so E2's entries must survive.
  catalog::CatalogOptions catalog_options;
  catalog_options.idle_ttl = std::chrono::milliseconds(0);
  catalog::Catalog catalog(catalog_options);
  auto first = catalog.Publish("t", testing::MakeFigure2Db());
  ASSERT_TRUE(first.ok());
  const uint64_t e1 = (*first)->epoch();

  ResultCache cache(8);
  const SearchOptions options;
  core::SearchResult result;
  cache.Insert(ResultCache::MakeKey("t", e1, 0, 1, {"avatar"}, options),
               result);

  // The eviction sweep observes E1...
  const std::vector<catalog::Catalog::EvictedTenant> evicted =
      catalog.EvictIdle();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].name, "t");
  EXPECT_EQ(evicted[0].epoch, e1);

  // ...then the republish wins the race and repopulates the cache.
  auto second = catalog.Publish("t", testing::MakeFigure2Db());
  ASSERT_TRUE(second.ok());
  const uint64_t e2 = (*second)->epoch();
  ASSERT_GT(e2, e1);
  cache.Insert(ResultCache::MakeKey("t", e2, 0, 1, {"avatar"}, options),
               result);

  // The purge lands last, scoped to epochs <= E1: only the stale entry
  // goes.
  EXPECT_EQ(cache.EvictTenantEntries("t", evicted[0].epoch), 1u);
  EXPECT_TRUE(
      cache
          .Lookup(ResultCache::MakeKey("t", e2, 0, 1, {"avatar"}, options))
          .has_value());
  // The unbounded overload (tenant Drop, not eviction) still clears all.
  EXPECT_EQ(cache.EvictTenantEntries("t"), 1u);
}

TEST(ServiceTenantEvictionTest, ConcurrentRepublishAndEvictionStayCoherent) {
  // Thread-level smoke for the same race: one thread sweeps evictions
  // while another republishes and searches. Nothing may crash, and every
  // completed search must succeed — a purge that raced a republish shows
  // up here (under TSan) as a stale cache entry or a torn catalog state.
  catalog::CatalogOptions catalog_options;
  catalog_options.idle_ttl = std::chrono::milliseconds(0);
  catalog::Catalog catalog(catalog_options);
  ASSERT_TRUE(
      catalog.Publish(kDefaultTenant, testing::MakeFigure2Db()).ok());
  MappingService svc(&catalog);

  std::atomic<bool> stop{false};
  std::thread sweeper([&]() {
    while (!stop.load()) svc.EvictIdleTenants();
  });
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(
        catalog.Publish(kDefaultTenant, testing::MakeFigure2Db()).ok());
    auto created = svc.CreateSession({"Name"});
    if (!created.ok()) continue;  // the sweeper won this round
    InputRequest request;
    request.session_id = *created;
    request.value = "Avatar";
    const RequestResult result = svc.Call(request);
    EXPECT_TRUE(result.status.ok()) << result.status;
    (void)svc.CloseSession(*created);
  }
  stop.store(true);
  sweeper.join();
}

TEST_F(ServiceTest, SessionsKeepServingTheirPinnedEpochAcrossRepublish) {
  MappingService svc(&catalog_);
  const SessionId id = *svc.CreateSession({"Name", "Director"});
  const auto type = [&](size_t row, size_t col, const char* value) {
    InputRequest request;
    request.session_id = id;
    request.row = row;
    request.col = col;
    request.value = value;
    RequestResult result = svc.Call(request);
    ASSERT_TRUE(result.status.ok()) << result.status;
  };
  type(0, 0, "Avatar");
  type(0, 1, "James Cameron");

  // Republish the tenant mid-session: the open session keeps its pinned
  // snapshot, so the remaining keystrokes prune against the same epoch
  // and still converge.
  ASSERT_TRUE(catalog_.Publish(kDefaultTenant, testing::MakeFigure2Db()).ok());
  type(1, 0, "Harry Potter");
  type(1, 1, "David Yates");
  Status status = svc.sessions().WithSession(id, [](core::Session& session) {
    EXPECT_EQ(session.state(), SessionState::kConverged);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
}

// -------------------------------------------------------------- Metrics --

TEST(ServiceMetricsTest, OutcomeCountersAndHistogram) {
  ServiceMetrics metrics;
  metrics.RecordRequest(RequestOutcome::kOk, 0.1);
  metrics.RecordRequest(RequestOutcome::kOk, 3.0);
  metrics.RecordRequest(RequestOutcome::kTruncated, 100.0);
  metrics.RecordRequest(RequestOutcome::kFailed, 0.2);
  metrics.RecordRequest(RequestOutcome::kOverloaded, 0.0);
  metrics.RecordQueueDepth(3);
  metrics.RecordQueueDepth(7);
  metrics.RecordQueueDepth(2);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests_ok, 2u);
  EXPECT_EQ(snapshot.requests_truncated, 1u);
  EXPECT_EQ(snapshot.requests_failed, 1u);
  EXPECT_EQ(snapshot.requests_overloaded, 1u);
  EXPECT_EQ(snapshot.TotalRequests(), 5u);
  EXPECT_EQ(snapshot.CompletedRequests(), 4u);
  EXPECT_EQ(snapshot.queue_high_water, 7u);
  uint64_t histogram_total = 0;
  for (uint64_t count : snapshot.latency_buckets) histogram_total += count;
  EXPECT_EQ(histogram_total, 4u);  // overloaded requests record no latency
  EXPECT_LE(snapshot.ApproxLatencyPercentileMs(0.5),
            snapshot.ApproxLatencyPercentileMs(0.99));
  EXPECT_FALSE(snapshot.ToString().empty());
}

TEST(ServiceMetricsTest, DegradedOutcomeAndRetryCounters) {
  ServiceMetrics metrics;
  metrics.RecordRequest(RequestOutcome::kOk, 0.1);
  metrics.RecordRequest(RequestOutcome::kDegraded, 5.0);
  metrics.RecordRequest(RequestOutcome::kDegraded, 6.0);
  metrics.RecordSearchRetry();
  metrics.RecordSearchRetry();
  metrics.RecordSearchRetry();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests_ok, 1u);
  EXPECT_EQ(snapshot.requests_degraded, 2u);
  EXPECT_EQ(snapshot.search_retries, 3u);
  EXPECT_EQ(snapshot.TotalRequests(), 3u);
  EXPECT_EQ(snapshot.CompletedRequests(), 3u);
  EXPECT_STREQ(RequestOutcomeName(RequestOutcome::kDegraded), "degraded");
  EXPECT_NE(snapshot.ToString().find("degraded"), std::string::npos);
}

// ------------------------------------------- Degradation (fault-injected) --

TEST_F(ServiceTest, TransientSearchFailureRetriedOnceAndReportedDegraded) {
  MappingService svc(&catalog_);
  const SessionId id = *svc.CreateSession({"Name"});
  InputRequest request;
  request.session_id = id;
  request.value = "Avatar";

  FailpointPolicy policy;
  policy.action = FailAction::kError;  // injects kUnavailable by default
  policy.max_fires = 1;                // first attempt fails, retry succeeds
  RequestResult result;
  {
    ScopedFailpoint armed("service.search.transient", policy);
    result = svc.Call(request);
  }
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.outcome, RequestOutcome::kDegraded);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.num_candidates, 0u);

  const MetricsSnapshot snapshot = svc.SnapshotMetrics();
  EXPECT_EQ(snapshot.requests_degraded, 1u);
  EXPECT_EQ(snapshot.search_retries, 1u);
  EXPECT_EQ(snapshot.requests_failed, 0u);
  EXPECT_EQ(snapshot.requests_ok, 0u);
  // Both attempts consulted the cache and missed.
  EXPECT_EQ(snapshot.cache_misses, 2u);
  EXPECT_EQ(snapshot.cache_hits, 0u);

  // The degraded result matches a clean-run search exactly.
  auto clean = core::SampleSearch(engine_, graph_, {"Avatar"});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(result.num_candidates, clean->candidates.size());
}

TEST_F(ServiceTest, PersistentTransientFailureFailsAfterOneRetry) {
  MappingService svc(&catalog_);
  const SessionId id = *svc.CreateSession({"Name"});
  InputRequest request;
  request.session_id = id;
  request.value = "Avatar";

  FailpointPolicy policy;
  policy.action = FailAction::kError;  // unlimited: the retry fails too
  RequestResult result;
  uint64_t injected = 0;
  {
    ScopedFailpoint armed("service.search.transient", policy);
    result = svc.Call(request);
    injected = armed.site().stats().fires;
  }
  EXPECT_TRUE(result.status.IsUnavailable()) << result.status;
  EXPECT_EQ(result.outcome, RequestOutcome::kFailed);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(injected, 2u);  // exactly one retry: two injected failures

  const MetricsSnapshot snapshot = svc.SnapshotMetrics();
  EXPECT_EQ(snapshot.requests_failed, 1u);
  EXPECT_EQ(snapshot.search_retries, 1u);
  EXPECT_EQ(snapshot.requests_degraded, 0u);

  // The failure left the session replayable: the same keystroke now
  // succeeds cleanly (no stale grid or half-run search state).
  RequestResult replay = svc.Call(request);
  ASSERT_TRUE(replay.status.ok()) << replay.status;
  EXPECT_EQ(replay.outcome, RequestOutcome::kOk);
  EXPECT_GT(replay.num_candidates, 0u);
}

TEST_F(ServiceTest, ForcedAdmissionRejectionCountsAsOverloaded) {
  MappingService svc(&catalog_);
  const SessionId id = *svc.CreateSession({"Name"});
  InputRequest request;
  request.session_id = id;
  request.value = "Avatar";

  FailpointPolicy policy;
  policy.action = FailAction::kTrigger;
  policy.max_fires = 1;
  {
    ScopedFailpoint armed("service.queue.admit", policy);
    Status rejected = svc.Enqueue(request, [](RequestResult) {});
    EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected;
  }
  const MetricsSnapshot snapshot = svc.SnapshotMetrics();
  EXPECT_EQ(snapshot.requests_overloaded, 1u);

  // Disarmed, the same request sails through.
  RequestResult result = svc.Call(request);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.outcome, RequestOutcome::kOk);
}

TEST_F(ServiceTest, ForcedScanFallbackKeepsResultsAndCountsInMetrics) {
  // Degraded text path: the accelerated lookup faults and every probe runs
  // the frozen linear scan. Results must be identical; the degradation is
  // visible only in the scan-fallback counter.
  MappingService svc(&catalog_);
  const SessionId id = *svc.CreateSession({"Name"});
  InputRequest request;
  request.session_id = id;
  request.value = "Avatar";

  RequestResult result;
  {
    FailpointPolicy force_scan;
    force_scan.action = FailAction::kTrigger;
    ScopedFailpoint armed("text.lookup.fast_path", force_scan);
    result = svc.Call(request);
  }
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.outcome, RequestOutcome::kOk);

  const MetricsSnapshot snapshot = svc.SnapshotMetrics();
  EXPECT_GT(snapshot.text_scan_fallbacks, 0u);

  auto clean = core::SampleSearch(engine_, graph_, {"Avatar"});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(result.num_candidates, clean->candidates.size());
}

}  // namespace
}  // namespace mweaver::service
