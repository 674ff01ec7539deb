#include "service/result_cache.h"

#include <cstdlib>
#include <limits>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace mweaver::service {

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {}

// Tripwire: whoever adds a field to SearchOptions must decide whether it
// affects the result set, update SearchOptions::Fingerprint() accordingly,
// and re-bless the size here. Guarded to 64-bit targets where the layout
// (int + 2 double + 4 size_t, 8-byte aligned) is stable.
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(core::SearchOptions) == 56,
              "SearchOptions layout changed: audit Fingerprint() so the "
              "result cache keys on every result-affecting field, then "
              "update this assert");
#endif

namespace {
// `t=<len>:<name>;` — the length prefix makes the tenant segment
// self-delimiting, so a tenant named "a;e=7" cannot forge another
// tenant/epoch's key space.
std::string TenantPrefix(std::string_view tenant) {
  std::string prefix = StrFormat("t=%zu:", tenant.size());
  prefix.append(tenant.data(), tenant.size());
  prefix += ';';
  return prefix;
}
}  // namespace

std::string ResultCache::MakeKeyPrefix(std::string_view tenant,
                                       uint64_t epoch, uint64_t minor_epoch,
                                       uint32_t shards) {
  // Tenant + (epoch, minor epoch) + shard topology scope the prefix to one
  // serving state — publish, streaming update, or reshard.
  return TenantPrefix(tenant) +
         StrFormat("e=%llu.%llu;s=%u;",
                   static_cast<unsigned long long>(epoch),
                   static_cast<unsigned long long>(minor_epoch),
                   static_cast<unsigned>(shards));
}

std::string ResultCache::MakeKeyWithPrefix(
    std::string_view prefix, const std::vector<std::string>& first_row,
    const core::SearchOptions& options) {
  // The options fingerprint covers everything else that can change the
  // result set (canonically defined next to the options themselves).
  std::string key(prefix);
  key += StrFormat("m=%zu;", first_row.size());
  key += options.Fingerprint();
  key += '|';
  for (const std::string& sample : first_row) {
    key += ToLower(sample);
    key += '\x1f';  // unit separator: never produced by user keystrokes
  }
  return key;
}

std::string ResultCache::MakeKey(std::string_view tenant, uint64_t epoch,
                                 uint64_t minor_epoch, uint32_t shards,
                                 const std::vector<std::string>& first_row,
                                 const core::SearchOptions& options) {
  return MakeKeyWithPrefix(MakeKeyPrefix(tenant, epoch, minor_epoch, shards),
                           first_row, options);
}

std::string_view ResultCache::TenantOfKey(std::string_view key) {
  // "t=<len>:<name>;" — read the length, then take exactly that many bytes.
  if (!key.starts_with("t=")) return {};
  const size_t colon = key.find(':');
  if (colon == std::string_view::npos) return {};
  size_t len = 0;
  for (size_t i = 2; i < colon; ++i) {
    if (key[i] < '0' || key[i] > '9') return {};
    len = len * 10 + static_cast<size_t>(key[i] - '0');
  }
  if (key.size() - colon - 1 < len) return {};
  return key.substr(colon + 1, len);
}

size_t ResultCache::EvictTenantEntries(std::string_view tenant) {
  return EvictTenantEntries(tenant, std::numeric_limits<uint64_t>::max());
}

size_t ResultCache::EvictTenantEntries(std::string_view tenant,
                                       uint64_t max_epoch) {
  const std::string prefix = TenantPrefix(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  size_t evicted = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      ++it;
      continue;
    }
    // The epoch segment follows the self-delimiting tenant prefix as
    // "e=<epoch>.<minor>;". Entries from a newer epoch — a republish that
    // raced the eviction sweep — are kept.
    const char* seg = it->first.c_str() + prefix.size();
    uint64_t entry_epoch = 0;
    if (seg[0] == 'e' && seg[1] == '=') {
      entry_epoch = std::strtoull(seg + 2, nullptr, 10);
    }
    if (entry_epoch > max_epoch) {
      ++it;
      continue;
    }
    index_.erase(it->first);
    it = lru_.erase(it);
    ++evicted;
  }
  return evicted;
}

std::optional<core::SearchResult> ResultCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

std::optional<std::string> ResultCache::Insert(const std::string& key,
                                               core::SearchResult result) {
  if (capacity_ == 0) return std::nullopt;
  // Never replay partial results.
  if (result.stats.truncated) return std::nullopt;
  // Chaos site: a dropped result-cache insert; like the probe memo, losing
  // one only forces recomputation on the next identical request.
  if (MW_FAILPOINT_TRIGGERED("service.result_cache.insert")) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return std::nullopt;
  }
  lru_.emplace_front(key, std::move(result));
  index_[key] = lru_.begin();
  if (lru_.size() <= capacity_) return std::nullopt;
  std::optional<std::string> tenant(TenantOfKey(lru_.back().first));
  index_.erase(lru_.back().first);
  lru_.pop_back();
  return tenant;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace mweaver::service
