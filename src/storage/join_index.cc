#include "storage/join_index.h"

#include <limits>

#include "common/logging.h"

namespace mweaver::storage {

std::shared_ptr<const JoinIndex> JoinIndex::Build(const Relation& source,
                                                  AttributeId source_attr,
                                                  const Relation& target,
                                                  AttributeId target_attr) {
  constexpr size_t kMaxRows = std::numeric_limits<uint32_t>::max();
  MW_CHECK_LT(source.num_rows(), kMaxRows);
  MW_CHECK_LT(target.num_rows(), kMaxRows);
  auto index = std::make_shared<JoinIndex>();
  index->stamp_ = StampOf(source, target);
  index->offsets_.reserve(source.num_rows() + 1);
  index->offsets_.push_back(0);
  // The hash index lists the live target rows of a value in ascending order.
  const HashIndex& by_target = target.IndexOn(target_attr);
  for (size_t r = 0; r < source.num_rows(); ++r) {
    const auto row = static_cast<RowId>(r);
    const Value& value = source.at(row, source_attr);
    if (!source.is_deleted(row) && !value.is_null()) {
      for (RowId t : by_target.Lookup(value)) {
        index->targets_.push_back(static_cast<uint32_t>(t));
      }
    }
    MW_CHECK_LE(index->targets_.size(), kMaxRows);
    index->offsets_.push_back(static_cast<uint32_t>(index->targets_.size()));
  }
  index->targets_.shrink_to_fit();
  return index;
}

}  // namespace mweaver::storage
