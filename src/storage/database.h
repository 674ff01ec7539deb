// Database: catalog of relations plus declared foreign keys — the source
// database DS with schema SS of the paper.
#ifndef MWEAVER_STORAGE_DATABASE_H_
#define MWEAVER_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/join_index.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace mweaver::storage {

/// \brief An in-memory relational database: named relations and the
/// FK->PK relationships among them.
class Database {
 public:
  explicit Database(std::string name = "db");
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&);
  Database& operator=(Database&&);

  /// \brief Deep copy: relations (rows included), name index, and foreign
  /// keys. The clone is a fully independent instance — the catalog layer
  /// uses it to publish one source to several tenants and tests use it as
  /// a frozen reference copy while the original's tenant moves on. Join
  /// indexes are not copied; the clone builds its own on first use.
  Database Clone() const;

  /// \brief Copy-on-write copy for delta builds: relations whose id is in
  /// `touched` are deep-cloned (the caller is about to mutate them), the
  /// rest share the original's immutable storage. Untouched relations cost
  /// one shared_ptr copy instead of a row-by-row clone, which is what makes
  /// a streaming update batch cheap relative to a full Publish. Built join
  /// indexes are shared too; mutable_relation drops those of the FKs of the
  /// relation it hands out, and the copy builds them again on first use.
  Database CloneCow(const std::vector<RelationId>& touched) const;

  const std::string& name() const { return name_; }

  /// \brief Registers a new empty relation; fails on duplicate names.
  Result<RelationId> AddRelation(RelationSchema schema);

  /// \brief Declares a foreign key; fails when any endpoint is unknown or
  /// the attribute types disagree.
  Result<ForeignKeyId> AddForeignKey(const std::string& from_relation,
                                     const std::string& from_attribute,
                                     const std::string& to_relation,
                                     const std::string& to_attribute);

  size_t num_relations() const { return relations_.size(); }
  const Relation& relation(RelationId id) const {
    return *relations_[static_cast<size_t>(id)];
  }
  /// \brief Mutable access; only valid on databases this caller exclusively
  /// owns (generators filling a fresh instance, delta builds touching the
  /// relations they deep-cloned). Mutating a relation shared via CloneCow
  /// would leak the change into the base snapshot. Drops the join indexes
  /// of the relation's FKs.
  Relation* mutable_relation(RelationId id);

  /// \brief Relation id for `name`, or kInvalidRelation.
  RelationId FindRelation(const std::string& name) const;

  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }
  const ForeignKey& foreign_key(ForeignKeyId id) const {
    return foreign_keys_[static_cast<size_t>(id)];
  }

  /// \brief The join index of foreign key `fk` whose source rows sit on the
  /// FK's from side (`source_is_from_side`) or its to side. Built on first
  /// use and rebuilt when either relation changed since (JoinIndex::Stamp);
  /// a lookup of a built, current index takes no lock. A self-referencing
  /// FK on a single attribute has one index for both directions. The
  /// reference stays valid until a relation of the FK changes or
  /// mutable_relation hands one out.
  const JoinIndex& JoinIndexOn(ForeignKeyId fk, bool source_is_from_side) const;

  /// \brief Bytes held by the join indexes built so far, stale ones kept
  /// after a rebuild (see JoinIndexOn in database.cc) included.
  size_t JoinIndexBytes() const;

  /// \brief Total attribute count across all relations (the paper reports
  /// "43 relations and 131 attributes" for Yahoo Movies).
  size_t TotalAttributes() const;
  /// \brief Total row count across all relations.
  size_t TotalRows() const;

  /// \brief Verifies that every non-null FK value references an existing
  /// key on the referenced side. O(total rows); used by generator tests.
  Status CheckReferentialIntegrity() const;

 private:
  std::string name_;
  // shared_ptr so CloneCow can share untouched relations between the base
  // snapshot and a delta; plain Clone still deep-copies every one.
  std::vector<std::shared_ptr<Relation>> relations_;
  std::unordered_map<std::string, RelationId> relations_by_name_;
  std::vector<ForeignKey> foreign_keys_;
  // Two join-index slots per FK (from-side source, to-side source). Behind
  // a pointer so the database stays movable.
  struct JoinIndexes;
  std::unique_ptr<JoinIndexes> join_indexes_;
};

}  // namespace mweaver::storage

#endif  // MWEAVER_STORAGE_DATABASE_H_
