// mapping_server: demo of the concurrent service layer. Publishes the
// Figure-2 movie database to one or more catalog tenants, spins up a
// MappingService over the catalog, and drives several concurrent "users"
// through it — each opens a session on its tenant, types sample rows
// keystroke by keystroke, and converges on the Director join path — then
// prints the service metrics snapshot (request outcomes, latency
// histogram percentiles, queue high-water, cache hit rate) plus the
// per-tenant rollups.
//
//   $ ./examples/mapping_server [num_users] [--tenants=N] [--shards=N]
//
// --shards=N publishes every tenant as N row-hash shards
// (catalog::CatalogOptions::shard_count); searches fan out across the
// shard bundle and return byte-identical results for any N.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "service/mapping_service.h"
#include "storage/database.h"

namespace {

using mweaver::storage::AttributeSchema;
using mweaver::storage::Database;
using mweaver::storage::RelationSchema;
using mweaver::storage::Row;
using mweaver::storage::Value;
using mweaver::storage::ValueType;

AttributeSchema Id(const char* name) {
  return {name, ValueType::kInt64, /*searchable=*/false};
}
AttributeSchema Str(const char* name) {
  return {name, ValueType::kString, /*searchable=*/true};
}

// Same Figure-2 source as the quickstart: movie/person joined through
// both director and writer link tables.
Database MakeExampleDb() {
  Database db("example");
  db.AddRelation(RelationSchema("movie", {Id("mid"), Str("title")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("person", {Id("pid"), Str("name")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("director", {Id("mid"), Id("pid")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("writer", {Id("mid"), Id("pid")}))
      .ValueOrDie();
  db.AddForeignKey("director", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("director", "pid", "person", "pid").ValueOrDie();
  db.AddForeignKey("writer", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("writer", "pid", "person", "pid").ValueOrDie();

  auto add = [&](const char* rel, Row row) {
    db.mutable_relation(db.FindRelation(rel))->AppendUnchecked(std::move(row));
  };
  add("movie", {Value(int64_t{0}), Value("Avatar")});
  add("movie", {Value(int64_t{1}), Value("Harry Potter")});
  add("movie", {Value(int64_t{2}), Value("Big Fish")});
  add("person", {Value(int64_t{0}), Value("James Cameron")});
  add("person", {Value(int64_t{1}), Value("David Yates")});
  add("person", {Value(int64_t{2}), Value("J. K. Rowling")});
  add("person", {Value(int64_t{3}), Value("Tim Burton")});
  add("person", {Value(int64_t{4}), Value("John August")});
  add("director", {Value(int64_t{0}), Value(int64_t{0})});
  add("director", {Value(int64_t{1}), Value(int64_t{1})});
  add("director", {Value(int64_t{2}), Value(int64_t{3})});
  add("writer", {Value(int64_t{0}), Value(int64_t{0})});
  add("writer", {Value(int64_t{1}), Value(int64_t{2})});
  add("writer", {Value(int64_t{2}), Value(int64_t{4})});
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mweaver;
  size_t num_users = 6;
  size_t num_tenants = 1;
  size_t num_shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      num_tenants = std::strtoul(argv[i] + 10, nullptr, 10);
      if (num_tenants == 0) num_tenants = 1;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      num_shards = std::strtoul(argv[i] + 9, nullptr, 10);
      if (num_shards == 0) num_shards = 1;
    } else {
      num_users = std::strtoul(argv[i], nullptr, 10);
    }
  }

  // Each tenant serves its own snapshot of the example source. Tenant "0"
  // doubles as the default tenant so `--tenants=1` exercises the plain
  // single-tenant path.
  catalog::CatalogOptions catalog_options;
  catalog_options.shard_count = static_cast<uint32_t>(num_shards);
  catalog::Catalog cat(catalog_options);
  std::vector<std::string> tenants;
  for (size_t t = 0; t < num_tenants; ++t) {
    tenants.push_back(num_tenants == 1
                          ? std::string(service::kDefaultTenant)
                          : "tenant-" + std::to_string(t));
    auto published = cat.Publish(tenants.back(), MakeExampleDb());
    if (!published.ok()) {
      std::cerr << "publish: " << published.status() << "\n";
      return 1;
    }
  }

  service::ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 32;
  options.cache_capacity = 64;
  service::MappingService svc(&cat, options);

  std::cout << "mapping_server: " << num_users << " concurrent users over "
            << num_tenants << " tenant(s) x " << num_shards
            << " shard(s), " << options.num_workers
            << " workers, queue depth " << options.max_queue_depth
            << "\n\n";

  std::atomic<size_t> converged{0};
  std::atomic<size_t> cache_hits_seen{0};
  std::vector<std::thread> users;
  for (size_t u = 0; u < num_users; ++u) {
    users.emplace_back([&, u]() {
      // Users are dealt round-robin over the tenants; sessions pin their
      // tenant's snapshot at creation.
      auto created =
          svc.CreateSession(tenants[u % tenants.size()],
                            {"Name", "Director"});
      if (!created.ok()) {
        std::cerr << "user " << u << ": " << created.status() << "\n";
        return;
      }
      const std::vector<std::tuple<size_t, size_t, const char*>> keystrokes{
          {0, 0, "Avatar"},
          {0, 1, "James Cameron"},
          {1, 0, "Harry Potter"},
          {1, 1, "David Yates"},
      };
      service::RequestResult last;
      for (const auto& [row, col, value] : keystrokes) {
        service::InputRequest request;
        request.session_id = *created;
        request.row = row;
        request.col = col;
        request.value = value;
        last = svc.Call(request);
        while (last.outcome == service::RequestOutcome::kOverloaded) {
          std::this_thread::yield();  // closed-loop backoff on backpressure
          last = svc.Call(request);
        }
        if (!last.status.ok()) {
          std::cerr << "user " << u << ": " << last.status << "\n";
          return;
        }
        if (last.cache_hit) cache_hits_seen.fetch_add(1);
      }
      if (last.state == core::SessionState::kConverged) {
        converged.fetch_add(1);
      }
      (void)svc.CloseSession(*created);
    });
  }
  for (std::thread& user : users) user.join();

  const service::MetricsSnapshot metrics = svc.SnapshotMetrics();
  std::cout << "users converged:  " << converged.load() << "/" << num_users
            << "\n";
  std::cout << "metrics:          " << metrics.ToString() << "\n";
  std::cout << "metrics (json):   " << svc.SnapshotMetricsJson() << "\n";
  std::cout << "per-tenant (json): " << svc.PerTenantMetricsJson() << "\n";
  std::cout << "open sessions:    " << svc.sessions().size() << "\n";

  if (converged.load() != num_users) {
    std::cerr << "expected every user to converge\n";
    return 1;
  }
  // Every user types the identical first row, and cache keys are
  // tenant-scoped, so a tenant's users share one key and users on
  // different tenants share none. The cache holds completed results only:
  // identical misses in flight at once each run TPW (no coalescing). A
  // first-row search holds its service worker from lookup to insert (its
  // ParallelFor fan-out runs on ThreadPool::Shared, never on the service
  // pool), so at most num_workers lookups can precede a key's first
  // insert. For a tenant with U users that gives
  //   misses >= 1                      (its first search always misses)
  //   hits + misses == U               (one first-row search per session)
  //   hits >= max(0, U - num_workers)
  // provided no request was truncated (truncated results are not cached),
  // no search was retried (a retry looks the key up again), the
  // service.result_cache.insert failpoint never fired (it drops inserts)
  // and the LRU evicted no entry (an evicted key misses again). Otherwise
  // the bound does not apply and is only reported. A cache_capacity of 0
  // evicts nothing but stores nothing either: that is a disabled cache,
  // which the bound rightly fails.
  const Failpoint* dropped_inserts =
      FailpointRegistry::Global().Find("service.result_cache.insert");
  const char* bound_void =
      metrics.requests_truncated != 0 ? "a request was truncated"
      : metrics.search_retries != 0   ? "a search was retried"
      : dropped_inserts != nullptr && dropped_inserts->stats().fires != 0
          ? "service.result_cache.insert dropped an insert"
      : metrics.cache_evictions != 0 ? "the result cache evicted an entry"
                                      : nullptr;
  if (bound_void != nullptr) {
    std::cout << "cache-hit bound does not apply: " << bound_void << "\n";
    return 0;
  }
  const std::map<std::string, service::TenantMetricsSnapshot> per_tenant =
      svc.PerTenantMetrics();
  bool bound_held = true;
  for (size_t t = 0; t < num_tenants; ++t) {
    const uint64_t tenant_users =
        num_users / num_tenants + (t < num_users % num_tenants ? 1 : 0);
    if (tenant_users == 0) continue;
    const uint64_t hits = per_tenant.at(tenants[t]).cache_hits;
    const uint64_t misses = per_tenant.at(tenants[t]).cache_misses;
    const uint64_t min_hits = tenant_users > options.num_workers
                                  ? tenant_users - options.num_workers
                                  : 0;
    std::cout << "cache bound:      tenant " << tenants[t] << ": " << hits
              << " hits / " << misses << " misses for " << tenant_users
              << " users (need >= " << min_hits << " hits, >= 1 miss)\n";
    if (misses < 1 || hits + misses != tenant_users || hits < min_hits) {
      std::cerr << "tenant " << tenants[t]
                << " broke the cache-hit bound on repeated first rows\n";
      bound_held = false;
    }
  }
  return bound_held ? 0 : 1;
}
