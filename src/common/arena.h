// Arena: a bump-pointer allocation region implementing
// std::pmr::memory_resource, so std::pmr containers can draw from it
// directly. Built for the request-scoped allocation pattern of the TPW
// pipeline: the weave stage creates thousands of small vectors per search
// (seven vertex/row/projection lanes per woven tuple path, most of them
// duplicates the dedup discards) that all die together when the search
// finishes, so individual deallocation is a no-op and the whole region is
// recycled with Reset() between searches.
//
// Not thread-safe: one Arena belongs to one request (ExecutionContext) and
// is only touched from the stage that owns it. Parallel stages (pairwise
// execution) allocate from the default heap instead.
#ifndef MWEAVER_COMMON_ARENA_H_
#define MWEAVER_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

namespace mweaver {

/// \brief A growing bump-pointer arena. Allocation is a pointer increment;
/// deallocation is a no-op; Reset() recycles every block for the next
/// request (the largest block is kept so steady-state serving does not
/// touch malloc at all).
class Arena : public std::pmr::memory_resource {
 public:
  /// \brief First block size; subsequent blocks double up to kMaxBlockBytes.
  explicit Arena(size_t initial_block_bytes = kDefaultBlockBytes);
  ~Arena() override = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// \brief Recycles the arena: every allocation made so far is invalidated,
  /// and the largest existing block is kept for reuse (the rest are freed).
  void Reset();

  /// Bytes handed out since construction or the last Reset() (including
  /// alignment padding).
  size_t bytes_used() const { return bytes_used_; }
  /// Total capacity currently reserved across blocks.
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Allocations served since construction or the last Reset().
  uint64_t num_allocations() const { return num_allocations_; }
  /// Lifetime counters (not cleared by Reset), for arena-reuse assertions.
  uint64_t total_allocations() const { return total_allocations_; }
  uint64_t num_resets() const { return num_resets_; }

  static constexpr size_t kDefaultBlockBytes = 64 * 1024;
  static constexpr size_t kMaxBlockBytes = 4 * 1024 * 1024;

 protected:
  void* do_allocate(size_t bytes, size_t alignment) override;
  void do_deallocate(void* p, size_t bytes, size_t alignment) override;
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  Block& AddBlock(size_t min_bytes);

  const size_t initial_block_bytes_;
  std::vector<Block> blocks_;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  uint64_t num_allocations_ = 0;
  uint64_t total_allocations_ = 0;
  uint64_t num_resets_ = 0;
};

}  // namespace mweaver

#endif  // MWEAVER_COMMON_ARENA_H_
