#include "core/canonical_key.h"

#include <algorithm>
#include <utility>

#include "common/hash_util.h"
#include "core/path_internal.h"

namespace mweaver::core {

namespace {

using internal::AdjEdge;

// Per-thread buffers reused by every key built on the thread.
struct KeyScratch {
  std::vector<int32_t> offsets;
  std::vector<AdjEdge> edges;
  std::vector<int32_t> degree;
  std::vector<VertexId> layer;
  std::vector<VertexId> next_layer;
  // Stack of [begin, end) token ranges of the children being sorted.
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<KeyToken> sorted;
};

KeyScratch& Scratch() {
  thread_local KeyScratch scratch;
  return scratch;
}

// Vertex labels of a path: relation, optional row, projections.
struct MappingLabels {
  const MappingPath& path;
  static constexpr bool kRows = false;
  storage::RelationId relation(VertexId v) const {
    return path.vertex(v).relation;
  }
  std::span<const Projection> projections() const {
    return path.projections();
  }
};

template <bool kWithRows>
struct TupleLabels {
  const TuplePath& path;
  static constexpr bool kRows = kWithRows;
  storage::RelationId relation(VertexId v) const {
    return path.relations()[static_cast<size_t>(v)];
  }
  storage::RowId row(VertexId v) const { return path.row(v); }
  std::span<const Projection> projections() const {
    return {path.projections().data(), path.projections().size()};
  }
};

template <typename Labels>
void AppendLabel(const Labels& labels, VertexId v,
                 std::vector<KeyToken>& out) {
  out.push_back(labels.relation(v));
  if constexpr (Labels::kRows) out.push_back(labels.row(v));
  const size_t count_at = out.size();
  out.push_back(0);
  // Projections are sorted by target column, so each vertex's pairs come
  // out in a fixed order.
  for (const Projection& p : labels.projections()) {
    if (p.vertex != v) continue;
    out.push_back(p.target_column);
    out.push_back(p.attribute);
    ++out[count_at];
  }
}

bool TokensLess(const std::vector<KeyToken>& out,
                std::pair<size_t, size_t> a, std::pair<size_t, size_t> b) {
  return std::lexicographical_compare(
      out.begin() + static_cast<ptrdiff_t>(a.first),
      out.begin() + static_cast<ptrdiff_t>(a.second),
      out.begin() + static_cast<ptrdiff_t>(b.first),
      out.begin() + static_cast<ptrdiff_t>(b.second));
}

// Appends the encoding of the subtree of `v` entered from `parent`.
template <typename Labels>
void Encode(const Labels& labels, KeyScratch& s, VertexId v,
            VertexId parent, std::vector<KeyToken>& out) {
  AppendLabel(labels, v, out);
  const size_t first = static_cast<size_t>(s.offsets[static_cast<size_t>(v)]);
  const size_t last =
      static_cast<size_t>(s.offsets[static_cast<size_t>(v) + 1]);
  const size_t children = last - first - (parent == kNoVertex ? 0 : 1);
  out.push_back(static_cast<KeyToken>(children));
  if (children == 0) return;
  const size_t base = s.ranges.size();
  const size_t region = out.size();
  for (size_t k = first; k < last; ++k) {
    const AdjEdge e = s.edges[k];
    if (e.neighbor == parent) continue;
    const size_t begin = out.size();
    out.push_back(e.fk);
    out.push_back(e.neighbor_is_from_side ? 1 : 0);
    Encode(labels, s, e.neighbor, v, out);
    s.ranges.emplace_back(begin, out.size());
  }
  const auto ranges = s.ranges.begin() + static_cast<ptrdiff_t>(base);
  auto less = [&out](auto a, auto b) { return TokensLess(out, a, b); };
  if (!std::is_sorted(ranges, s.ranges.end(), less)) {
    std::sort(ranges, s.ranges.end(), less);
    s.sorted.clear();
    for (auto it = ranges; it != s.ranges.end(); ++it) {
      s.sorted.insert(s.sorted.end(),
                      out.begin() + static_cast<ptrdiff_t>(it->first),
                      out.begin() + static_cast<ptrdiff_t>(it->second));
    }
    std::copy(s.sorted.begin(), s.sorted.end(),
              out.begin() + static_cast<ptrdiff_t>(region));
  }
  s.ranges.resize(base);
}

// Leaves are peeled layer by layer until one or two vertices remain: the
// centre(s). Isomorphic trees have isomorphic centres, so rooting there
// loses nothing against the minimum over every rooting.
template <typename Labels>
void AppendCentreRooted(const Labels& labels, size_t n, KeyScratch& s,
                        std::vector<KeyToken>& out) {
  if (n == 0) return;
  s.layer.clear();
  if (n <= 2) {
    for (size_t v = 0; v < n; ++v) s.layer.push_back(static_cast<VertexId>(v));
  } else {
    s.degree.resize(n);
    for (size_t v = 0; v < n; ++v) {
      s.degree[v] = s.offsets[v + 1] - s.offsets[v];
      if (s.degree[v] == 1) s.layer.push_back(static_cast<VertexId>(v));
    }
    size_t remaining = n;
    while (remaining > 2) {
      remaining -= s.layer.size();
      s.next_layer.clear();
      for (VertexId leaf : s.layer) {
        s.degree[static_cast<size_t>(leaf)] = 0;
        const size_t first =
            static_cast<size_t>(s.offsets[static_cast<size_t>(leaf)]);
        const size_t last =
            static_cast<size_t>(s.offsets[static_cast<size_t>(leaf) + 1]);
        for (size_t k = first; k < last; ++k) {
          const size_t u = static_cast<size_t>(s.edges[k].neighbor);
          if (--s.degree[u] == 1) {
            s.next_layer.push_back(static_cast<VertexId>(u));
          }
        }
      }
      std::swap(s.layer, s.next_layer);
    }
  }
  const size_t start = out.size();
  Encode(labels, s, s.layer[0], kNoVertex, out);
  if (s.layer.size() == 1) return;
  const size_t mid = out.size();
  Encode(labels, s, s.layer[1], kNoVertex, out);
  // Both rootings encode the same tree, so they have the same length.
  if (TokensLess(out, {mid, out.size()}, {start, mid})) {
    std::copy(out.begin() + static_cast<ptrdiff_t>(mid), out.end(),
              out.begin() + static_cast<ptrdiff_t>(start));
  }
  out.resize(mid);
}

// Equality of two paths through their keys, built in per-thread buffers.
template <typename Path>
bool SameKey(const Path& a, const Path& b) {
  thread_local std::vector<KeyToken> key_a, key_b;
  key_a.clear();
  key_b.clear();
  AppendCanonicalKey(a, &key_a);
  AppendCanonicalKey(b, &key_b);
  return key_a == key_b;
}

template <bool kWithRows>
void AppendTupleKey(const TuplePath& path, std::vector<KeyToken>* out) {
  KeyScratch& s = Scratch();
  internal::BuildCsrAdjacency(path.parents(), path.fks(), path.from_sides(),
                              &s.offsets, &s.edges);
  AppendCentreRooted(TupleLabels<kWithRows>{path}, path.num_vertices(), s,
                     *out);
}

}  // namespace

void AppendCanonicalKey(const MappingPath& path, std::vector<KeyToken>* out) {
  KeyScratch& s = Scratch();
  internal::BuildCsrAdjacency(path.vertices(), &s.offsets, &s.edges);
  AppendCentreRooted(MappingLabels{path}, path.num_vertices(), s, *out);
}

void AppendCanonicalKey(const TuplePath& path, std::vector<KeyToken>* out) {
  AppendTupleKey<true>(path, out);
}

void AppendMappingKey(const TuplePath& path, std::vector<KeyToken>* out) {
  AppendTupleKey<false>(path, out);
}

bool MappingPath::operator==(const MappingPath& other) const {
  return SameKey(*this, other);
}

bool TuplePath::operator==(const TuplePath& other) const {
  return SameKey(*this, other);
}

bool CanonicalKeySet::Matches(const Entry& entry, uint64_t hash,
                              std::span<const KeyToken> key) const {
  return entry.hash == hash && entry.length == key.size() &&
         std::equal(key.begin(), key.end(),
                    pool_.begin() + static_cast<ptrdiff_t>(entry.offset));
}

CanonicalKeySet::InsertResult CanonicalKeySet::Insert(
    std::span<const KeyToken> key) {
  uint64_t hash = key.size();
  for (KeyToken token : key) hash = Mix64(hash ^ static_cast<uint64_t>(token));
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t occupant = slots_[slot];
    if (occupant == 0) {
      slots_[slot] = static_cast<uint32_t>(entries_.size() + 1);
      entries_.push_back(Entry{hash, pool_.size(), key.size()});
      pool_.insert(pool_.end(), key.begin(), key.end());
      return {static_cast<uint32_t>(entries_.size() - 1), true};
    }
    if (Matches(entries_[occupant - 1], hash, key)) {
      return {occupant - 1, false};
    }
  }
}

void CanonicalKeySet::Grow() {
  slots_.assign(std::max<size_t>(16, slots_.size() * 2), 0);
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t slot = entries_[i].hash & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(i + 1);
  }
}

}  // namespace mweaver::core
