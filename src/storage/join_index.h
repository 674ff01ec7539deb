// JoinIndex: a dense foreign-key join index. For one foreign key and one
// direction it stores, for every physical row of the source relation, the
// ascending run of joined target row ids (CSR layout: an offsets array and
// one flat array of row ids, both 32-bit). A join step then costs two array
// loads and reads no Value.
#ifndef MWEAVER_STORAGE_JOIN_INDEX_H_
#define MWEAVER_STORAGE_JOIN_INDEX_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/relation.h"

namespace mweaver::storage {

/// \brief Immutable CSR join index from the rows of a source relation to the
/// rows of a target relation whose target attribute equals the source row's
/// source attribute. Same semantics as Relation::IndexOn + HashIndex::Lookup:
/// tombstoned target rows are excluded and a NULL source value joins
/// nothing. A tombstoned source row joins nothing either.
class JoinIndex {
 public:
  /// (num_rows, num_deleted) of the source and then the target relation.
  /// Relations change only through Append and Delete, each of which moves
  /// one of these counts, so an equal stamp means unchanged contents.
  using Stamp = std::array<size_t, 4>;

  static Stamp StampOf(const Relation& source, const Relation& target) {
    return {source.num_rows(), source.num_deleted(), target.num_rows(),
            target.num_deleted()};
  }

  /// \brief Builds the index from `target`'s hash index on `target_attr`.
  static std::shared_ptr<const JoinIndex> Build(const Relation& source,
                                                AttributeId source_attr,
                                                const Relation& target,
                                                AttributeId target_attr);

  /// \brief Target rows joined by source row `row`, ascending.
  std::span<const uint32_t> Joined(RowId row) const {
    const auto r = static_cast<size_t>(row);
    return {targets_.data() + offsets_[r], targets_.data() + offsets_[r + 1]};
  }

  const Stamp& stamp() const { return stamp_; }
  size_t num_source_rows() const { return offsets_.size() - 1; }
  size_t bytes() const {
    return (offsets_.capacity() + targets_.capacity()) * sizeof(uint32_t);
  }

 private:
  Stamp stamp_{};
  std::vector<uint32_t> offsets_;  // num_source_rows() + 1 entries
  std::vector<uint32_t> targets_;
};

}  // namespace mweaver::storage

#endif  // MWEAVER_STORAGE_JOIN_INDEX_H_
