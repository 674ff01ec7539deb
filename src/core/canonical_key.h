// Exact, allocation-free canonical keys for MappingPath and TuplePath, and a
// pooled hash set over them.
//
// A key is the integer form of the AHU tree encoding behind Canonical(),
// rooted at the tree's centre (or the smaller of its two centres' encodings)
// instead of at every vertex. Each vertex contributes its label tokens
// (relation, the row for tuple keys, then the projection count and its
// (target column, attribute) pairs) and its child count; each child follows
// as (fk, orientation, subtree), children sorted lexicographically. The
// encoding is self-delimiting, so two paths have equal keys exactly when
// their Canonical() strings are equal. The dedup stages (weave levels,
// pairwise generation, ranking's mapping groups) compare keys; the string
// form stays for the public API, the rank tie-break and the baselines.
//
// Keys are built in per-thread scratch: after warm-up, appending a key to a
// reused vector allocates nothing.
#ifndef MWEAVER_CORE_CANONICAL_KEY_H_
#define MWEAVER_CORE_CANONICAL_KEY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/mapping_path.h"
#include "core/tuple_path.h"

namespace mweaver::core {

/// One token of a canonical key (wide enough for a row id).
using KeyToken = int64_t;

/// \brief Appends the canonical key of `path` to `*out`.
void AppendCanonicalKey(const MappingPath& path, std::vector<KeyToken>* out);

/// \brief Appends the canonical key of `path` (labels carry row ids, as in
/// TuplePath::Canonical()) to `*out`.
void AppendCanonicalKey(const TuplePath& path, std::vector<KeyToken>* out);

/// \brief Appends the key of path.ExtractMappingPath() to `*out` without
/// building that mapping path.
void AppendMappingKey(const TuplePath& path, std::vector<KeyToken>* out);

/// \brief Set of canonical keys: an open-addressing table over one pooled
/// token buffer. Lookups compare the full token sequence whenever the
/// hashes match, so distinct keys never collide. Ids are dense and follow
/// insertion order.
class CanonicalKeySet {
 public:
  struct InsertResult {
    uint32_t id;
    bool inserted;
  };

  /// \brief Inserts a copy of `key` unless an equal key is present; returns
  /// the key's id and whether it was new.
  InsertResult Insert(std::span<const KeyToken> key);

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t hash;
    size_t offset;  // into pool_
    size_t length;
  };

  bool Matches(const Entry& entry, uint64_t hash,
               std::span<const KeyToken> key) const;
  void Grow();

  std::vector<KeyToken> pool_;
  std::vector<Entry> entries_;
  // Power-of-two table of entry index + 1 (0 = empty), linear probing.
  std::vector<uint32_t> slots_;
};

}  // namespace mweaver::core

#endif  // MWEAVER_CORE_CANONICAL_KEY_H_
