#include "storage/database.h"

#include <atomic>
#include <mutex>

#include "common/string_util.h"

namespace mweaver::storage {

// Slot 2 * fk holds the index whose source is the FK's from side, slot
// 2 * fk + 1 the to side. Readers load `published` without a lock; builds
// run under `mu`, which also guards `owned` and `retired`. mutable_relation
// empties the slots of the relation's FKs, so an index is stale only if a
// relation changed through a Relation* taken before the index was built.
// Then a concurrent reader may still be reading the stale index's stamp, so
// the rebuild retires it rather than freeing it: it lives as long as the
// database.
struct Database::JoinIndexes {
  explicit JoinIndexes(size_t num_slots)
      : owned(num_slots),
        published(std::make_unique<std::atomic<const JoinIndex*>[]>(
            num_slots)) {}

  JoinIndexes(const JoinIndexes& other) : JoinIndexes(other.owned.size()) {
    std::lock_guard<std::mutex> lock(other.mu);
    owned = other.owned;
    for (size_t i = 0; i < owned.size(); ++i) {
      published[i].store(owned[i].get(), std::memory_order_relaxed);
    }
  }

  // Empties the slots of every FK with `rel` on either side. Callers own
  // the database exclusively, so no reader holds these indexes.
  void Drop(RelationId rel, const std::vector<ForeignKey>& fks) {
    std::lock_guard<std::mutex> lock(mu);
    for (size_t f = 0; f < fks.size(); ++f) {
      if (fks[f].from_relation != rel && fks[f].to_relation != rel) continue;
      for (size_t slot : {2 * f, 2 * f + 1}) {
        published[slot].store(nullptr, std::memory_order_relaxed);
        owned[slot].reset();
      }
    }
  }

  mutable std::mutex mu;
  std::vector<std::shared_ptr<const JoinIndex>> owned;
  std::vector<std::shared_ptr<const JoinIndex>> retired;
  std::unique_ptr<std::atomic<const JoinIndex*>[]> published;
};

Database::Database(std::string name)
    : name_(std::move(name)),
      join_indexes_(std::make_unique<JoinIndexes>(0)) {}

Database::~Database() = default;
Database::Database(Database&&) = default;
Database& Database::operator=(Database&&) = default;

Database Database::Clone() const {
  Database copy(name_);
  copy.relations_.reserve(relations_.size());
  for (const auto& rel : relations_) {
    copy.relations_.push_back(std::make_shared<Relation>(rel->Clone()));
  }
  copy.relations_by_name_ = relations_by_name_;
  copy.foreign_keys_ = foreign_keys_;
  copy.join_indexes_ = std::make_unique<JoinIndexes>(2 * foreign_keys_.size());
  return copy;
}

Database Database::CloneCow(const std::vector<RelationId>& touched) const {
  Database copy(name_);
  copy.relations_ = relations_;  // share everything ...
  for (RelationId id : touched) {  // ... except what the caller will mutate
    copy.relations_[static_cast<size_t>(id)] =
        std::make_shared<Relation>(relation(id).Clone());
  }
  copy.relations_by_name_ = relations_by_name_;
  copy.foreign_keys_ = foreign_keys_;
  copy.join_indexes_ = std::make_unique<JoinIndexes>(*join_indexes_);
  return copy;
}

Relation* Database::mutable_relation(RelationId id) {
  join_indexes_->Drop(id, foreign_keys_);
  return relations_[static_cast<size_t>(id)].get();
}

Result<RelationId> Database::AddRelation(RelationSchema schema) {
  if (schema.name().empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (relations_by_name_.count(schema.name()) > 0) {
    return Status::AlreadyExists(
        StrFormat("relation '%s' already exists", schema.name().c_str()));
  }
  const RelationId id = static_cast<RelationId>(relations_.size());
  relations_by_name_.emplace(schema.name(), id);
  relations_.push_back(std::make_shared<Relation>(std::move(schema)));
  return id;
}

Result<ForeignKeyId> Database::AddForeignKey(const std::string& from_relation,
                                             const std::string& from_attribute,
                                             const std::string& to_relation,
                                             const std::string& to_attribute) {
  const RelationId from_rel = FindRelation(from_relation);
  if (from_rel == kInvalidRelation) {
    return Status::NotFound(
        StrFormat("unknown relation '%s'", from_relation.c_str()));
  }
  const RelationId to_rel = FindRelation(to_relation);
  if (to_rel == kInvalidRelation) {
    return Status::NotFound(
        StrFormat("unknown relation '%s'", to_relation.c_str()));
  }
  const AttributeId from_attr =
      relation(from_rel).schema().FindAttribute(from_attribute);
  if (from_attr == kInvalidAttribute) {
    return Status::NotFound(StrFormat("unknown attribute '%s.%s'",
                                      from_relation.c_str(),
                                      from_attribute.c_str()));
  }
  const AttributeId to_attr =
      relation(to_rel).schema().FindAttribute(to_attribute);
  if (to_attr == kInvalidAttribute) {
    return Status::NotFound(StrFormat("unknown attribute '%s.%s'",
                                      to_relation.c_str(),
                                      to_attribute.c_str()));
  }
  const ValueType from_type =
      relation(from_rel).schema().attribute(from_attr).type;
  const ValueType to_type = relation(to_rel).schema().attribute(to_attr).type;
  if (from_type != to_type) {
    return Status::InvalidArgument(StrFormat(
        "foreign key type mismatch: %s.%s (%s) -> %s.%s (%s)",
        from_relation.c_str(), from_attribute.c_str(),
        ValueTypeName(from_type), to_relation.c_str(), to_attribute.c_str(),
        ValueTypeName(to_type)));
  }
  const ForeignKeyId id = static_cast<ForeignKeyId>(foreign_keys_.size());
  foreign_keys_.push_back(
      ForeignKey{from_rel, from_attr, to_rel, to_attr});
  // Schema setup is single-threaded: re-slot the (unbuilt) join indexes.
  join_indexes_ = std::make_unique<JoinIndexes>(2 * foreign_keys_.size());
  return id;
}

RelationId Database::FindRelation(const std::string& name) const {
  auto it = relations_by_name_.find(name);
  return it == relations_by_name_.end() ? kInvalidRelation : it->second;
}

const JoinIndex& Database::JoinIndexOn(ForeignKeyId fk_id,
                                      bool source_is_from_side) const {
  const ForeignKey& fk = foreign_key(fk_id);
  if (fk.from_relation == fk.to_relation &&
      fk.from_attribute == fk.to_attribute) {
    source_is_from_side = true;  // both directions are the same join
  }
  const RelationId source_rel =
      source_is_from_side ? fk.from_relation : fk.to_relation;
  const RelationId target_rel =
      source_is_from_side ? fk.to_relation : fk.from_relation;
  const Relation& source = relation(source_rel);
  const Relation& target = relation(target_rel);
  const JoinIndex::Stamp stamp = JoinIndex::StampOf(source, target);
  const size_t slot =
      2 * static_cast<size_t>(fk_id) + (source_is_from_side ? 0 : 1);
  JoinIndexes& indexes = *join_indexes_;
  const JoinIndex* index =
      indexes.published[slot].load(std::memory_order_acquire);
  if (index != nullptr && index->stamp() == stamp) return *index;
  std::lock_guard<std::mutex> lock(indexes.mu);
  index = indexes.owned[slot].get();
  if (index == nullptr || index->stamp() != stamp) {
    if (index != nullptr) indexes.retired.push_back(indexes.owned[slot]);
    indexes.owned[slot] =
        source_is_from_side
            ? JoinIndex::Build(source, fk.from_attribute, target,
                               fk.to_attribute)
            : JoinIndex::Build(source, fk.to_attribute, target,
                               fk.from_attribute);
    index = indexes.owned[slot].get();
    indexes.published[slot].store(index, std::memory_order_release);
  }
  return *index;
}

size_t Database::JoinIndexBytes() const {
  std::lock_guard<std::mutex> lock(join_indexes_->mu);
  size_t bytes = 0;
  for (const auto* list : {&join_indexes_->owned, &join_indexes_->retired}) {
    for (const auto& index : *list) {
      if (index != nullptr) bytes += index->bytes();
    }
  }
  return bytes;
}

size_t Database::TotalAttributes() const {
  size_t total = 0;
  for (const auto& rel : relations_) {
    total += rel->schema().num_attributes();
  }
  return total;
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& rel : relations_) total += rel->num_live_rows();
  return total;
}

Status Database::CheckReferentialIntegrity() const {
  for (const ForeignKey& fk : foreign_keys_) {
    const Relation& from = relation(fk.from_relation);
    const Relation& to = relation(fk.to_relation);
    const HashIndex& idx = to.IndexOn(fk.to_attribute);
    for (size_t r = 0; r < from.num_rows(); ++r) {
      if (from.is_deleted(static_cast<RowId>(r))) continue;
      const Value& v = from.at(static_cast<RowId>(r), fk.from_attribute);
      if (v.is_null()) continue;
      if (idx.Lookup(v).empty()) {
        return Status::FailedPrecondition(StrFormat(
            "dangling foreign key: %s.%s row %zu -> %s.%s (value %s)",
            from.name().c_str(),
            from.schema().attribute(fk.from_attribute).name.c_str(), r,
            to.name().c_str(),
            to.schema().attribute(fk.to_attribute).name.c_str(),
            v.ToDisplayString().c_str()));
      }
    }
  }
  return Status::OK();
}

}  // namespace mweaver::storage
