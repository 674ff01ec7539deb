// Relation: a schema plus a row-oriented instance I(R), with lazily built
// per-attribute hash indexes (the build input of the FK join indexes, see
// storage/join_index.h).
#ifndef MWEAVER_STORAGE_RELATION_H_
#define MWEAVER_STORAGE_RELATION_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace mweaver::storage {

/// A materialized row.
using Row = std::vector<Value>;

/// \brief Equality hash index on one attribute: value -> row ids.
class HashIndex {
 public:
  /// \brief Rows of `rel` whose `attribute` equals `value` (empty if none).
  const std::vector<RowId>& Lookup(const Value& value) const;

  void Insert(const Value& value, RowId row) { map_[value].push_back(row); }
  size_t num_distinct() const { return map_.size(); }

 private:
  std::unordered_map<Value, std::vector<RowId>> map_;
};

/// \brief A relation instance: rows conforming to a schema. Rows are
/// appended at the tail and deleted by tombstone — a deleted row keeps its
/// physical slot (and therefore its RowId), so posting lists, location maps
/// and FK edges built against older revisions never see ids shift under
/// them. Physical compaction happens only on a full rebuild (Publish).
class Relation {
 public:
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  // Indexes hold row ids; moving is fine, implicit copying would be
  // wasteful. Deliberate deep copies go through Clone().
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// \brief Deep copy of schema, rows and tombstones. Lazily built hash
  /// indexes are NOT copied — the clone rebuilds them on first use (they
  /// index by row id, which survives the copy, but sharing them would
  /// couple lifetimes).
  Relation Clone() const {
    Relation copy(schema_);
    copy.rows_ = rows_;
    copy.deleted_ = deleted_;
    copy.num_deleted_ = num_deleted_;
    return copy;
  }

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  /// \brief Appends a row. Fails if the arity does not match the schema or a
  /// non-null value's type contradicts the declared attribute type.
  Status Append(Row row);

  /// \brief Appends without validation; for trusted bulk loads (generators).
  RowId AppendUnchecked(Row row) {
    rows_.push_back(std::move(row));
    return static_cast<RowId>(rows_.size() - 1);
  }

  /// \brief Tombstones row `id`. Fails if the id is out of range or the row
  /// is already deleted. Invalidates lazily built hash indexes (they are
  /// rebuilt, skipping tombstones, on next use); only call on relations not
  /// concurrently served — in practice the private clones a delta build
  /// mutates before its snapshot is installed.
  Status Delete(RowId id);

  bool is_deleted(RowId id) const {
    const auto i = static_cast<size_t>(id);
    return i < deleted_.size() && deleted_[i] != 0;
  }

  /// \brief Physical row count, tombstoned slots included. RowIds range
  /// over [0, num_rows()).
  size_t num_rows() const { return rows_.size(); }
  size_t num_deleted() const { return num_deleted_; }
  size_t num_live_rows() const { return rows_.size() - num_deleted_; }
  const Row& row(RowId id) const { return rows_[static_cast<size_t>(id)]; }
  const Value& at(RowId row, AttributeId attr) const {
    return rows_[static_cast<size_t>(row)][static_cast<size_t>(attr)];
  }
  const std::vector<Row>& rows() const { return rows_; }

  /// \brief Hash index on `attribute`, built on first use. Thread-safe:
  /// concurrent callers may race to build, protected by a mutex; the
  /// returned index is immutable afterwards.
  const HashIndex& IndexOn(AttributeId attribute) const;

 private:
  RelationSchema schema_;
  std::vector<Row> rows_;
  // Tombstone flags, indexed by RowId; empty until the first Delete (the
  // common read-only relation pays nothing).
  std::vector<uint8_t> deleted_;
  size_t num_deleted_ = 0;
  // Lazily built; mutable because building an index does not change the
  // logical relation contents. The mutex lives behind a pointer so the
  // relation stays movable.
  mutable std::vector<std::unique_ptr<HashIndex>> indexes_;
  mutable std::unique_ptr<std::mutex> index_mutex_ =
      std::make_unique<std::mutex>();
};

}  // namespace mweaver::storage

#endif  // MWEAVER_STORAGE_RELATION_H_
