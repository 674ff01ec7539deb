#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "common/random.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/dump.h"
#include "storage/join_index.h"
#include "storage/stats.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "test_util.h"

namespace mweaver::storage {
namespace {

using ::mweaver::testing::AddRow;
using ::mweaver::testing::I;
using ::mweaver::testing::IdAttr;
using ::mweaver::testing::MakeFigure2Db;
using ::mweaver::testing::S;
using ::mweaver::testing::StrAttr;

// ----------------------------------------------------------------- Value --

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{4}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(int64_t{4}).AsInt64(), 4);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(std::string("xy")).AsString(), "xy");
}

TEST(ValueTest, DisplayStrings) {
  EXPECT_EQ(Value().ToDisplayString(), "");
  EXPECT_EQ(Value(int64_t{42}).ToDisplayString(), "42");
  EXPECT_EQ(Value(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(Value("Avatar").ToDisplayString(), "Avatar");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // different types differ
  EXPECT_EQ(Value(), Value::Null());
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(), Value(int64_t{0}));  // null sorts first
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(int64_t{7}).Hash());
  EXPECT_NE(Value(int64_t{7}).Hash(), Value("7").Hash());
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, FindAttribute) {
  RelationSchema schema("movie", {IdAttr("mid"), StrAttr("title")});
  EXPECT_EQ(schema.FindAttribute("mid"), 0);
  EXPECT_EQ(schema.FindAttribute("title"), 1);
  EXPECT_EQ(schema.FindAttribute("nope"), kInvalidAttribute);
  EXPECT_EQ(schema.num_attributes(), 2u);
}

TEST(SchemaTest, PrimaryKey) {
  RelationSchema schema("movie", {IdAttr("mid"), StrAttr("title")});
  schema.SetPrimaryKey({0});
  EXPECT_EQ(schema.primary_key(), std::vector<AttributeId>{0});
}

// -------------------------------------------------------------- Relation --

TEST(RelationTest, AppendValidatesArity) {
  Relation rel(RelationSchema("r", {IdAttr("a"), StrAttr("b")}));
  EXPECT_TRUE(rel.Append({I(1), S("x")}).ok());
  EXPECT_TRUE(rel.Append({I(1)}).IsInvalidArgument());
  EXPECT_TRUE(rel.Append({I(1), S("x"), S("y")}).IsInvalidArgument());
  EXPECT_EQ(rel.num_rows(), 1u);
}

TEST(RelationTest, AppendValidatesTypes) {
  Relation rel(RelationSchema("r", {IdAttr("a"), StrAttr("b")}));
  EXPECT_TRUE(rel.Append({S("wrong"), S("x")}).IsInvalidArgument());
  // Nulls are allowed anywhere.
  EXPECT_TRUE(rel.Append({Value::Null(), Value::Null()}).ok());
}

TEST(RelationTest, HashIndexLookup) {
  Relation rel(RelationSchema("r", {IdAttr("k"), StrAttr("v")}));
  ASSERT_TRUE(rel.Append({I(1), S("one")}).ok());
  ASSERT_TRUE(rel.Append({I(2), S("two")}).ok());
  ASSERT_TRUE(rel.Append({I(1), S("uno")}).ok());
  const HashIndex& index = rel.IndexOn(0);
  EXPECT_EQ(index.Lookup(I(1)), (std::vector<RowId>{0, 2}));
  EXPECT_EQ(index.Lookup(I(2)), (std::vector<RowId>{1}));
  EXPECT_TRUE(index.Lookup(I(9)).empty());
  EXPECT_EQ(index.num_distinct(), 2u);
}

TEST(RelationTest, IndexSkipsNulls) {
  Relation rel(RelationSchema("r", {IdAttr("k")}));
  ASSERT_TRUE(rel.Append({Value::Null()}).ok());
  ASSERT_TRUE(rel.Append({I(5)}).ok());
  EXPECT_EQ(rel.IndexOn(0).num_distinct(), 1u);
}

// -------------------------------------------------------------- Database --

TEST(DatabaseTest, AddAndFindRelations) {
  Database db = MakeFigure2Db();
  EXPECT_EQ(db.num_relations(), 4u);
  EXPECT_NE(db.FindRelation("movie"), kInvalidRelation);
  EXPECT_EQ(db.FindRelation("nope"), kInvalidRelation);
  EXPECT_EQ(db.TotalAttributes(), 8u);
  EXPECT_EQ(db.TotalRows(), 14u);
}

TEST(DatabaseTest, RejectsDuplicateRelation) {
  Database db;
  ASSERT_TRUE(db.AddRelation(RelationSchema("r", {IdAttr("a")})).ok());
  EXPECT_TRUE(db.AddRelation(RelationSchema("r", {IdAttr("a")}))
                  .status()
                  .IsAlreadyExists());
}

TEST(DatabaseTest, ForeignKeyValidation) {
  Database db;
  ASSERT_TRUE(
      db.AddRelation(RelationSchema("a", {IdAttr("x"), StrAttr("s")})).ok());
  ASSERT_TRUE(db.AddRelation(RelationSchema("b", {IdAttr("y")})).ok());
  EXPECT_TRUE(db.AddForeignKey("a", "x", "b", "y").ok());
  EXPECT_TRUE(db.AddForeignKey("zz", "x", "b", "y").status().IsNotFound());
  EXPECT_TRUE(db.AddForeignKey("a", "zz", "b", "y").status().IsNotFound());
  // Type mismatch: string -> int.
  EXPECT_TRUE(
      db.AddForeignKey("a", "s", "b", "y").status().IsInvalidArgument());
}

TEST(DatabaseTest, ReferentialIntegrity) {
  Database db = MakeFigure2Db();
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok());
  // Introduce a dangling reference.
  AddRow(&db, "director", {I(99), I(0)});
  EXPECT_TRUE(db.CheckReferentialIntegrity().IsFailedPrecondition());
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ParseSimpleLine) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParseQuotedFields) {
  auto fields = ParseCsvLine(R"("a,b",plain,"say ""hi""")");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a,b", "plain", "say \"hi\""}));
}

TEST(CsvTest, ParseErrors) {
  EXPECT_TRUE(ParseCsvLine("\"unterminated").status().IsInvalidArgument());
  EXPECT_TRUE(ParseCsvLine("mid\"quote").status().IsInvalidArgument());
}

TEST(CsvTest, FormatQuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(CsvTest, FormatParseRoundTrip) {
  const std::vector<std::string> fields{"plain", "with,comma", "with\"quote",
                                        ""};
  auto parsed = ParseCsvLine(FormatCsvLine(fields));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, fields);
}

TEST(CsvTest, SaveAndLoadRelation) {
  Relation rel(RelationSchema("t", {StrAttr("name"), StrAttr("city")}));
  ASSERT_TRUE(rel.Append({S("Ann, A."), S("Ann Arbor")}).ok());
  ASSERT_TRUE(rel.Append({S("Bob"), S("Boston")}).ok());

  const std::string path =
      (std::filesystem::temp_directory_path() / "mweaver_csv_test.csv")
          .string();
  ASSERT_TRUE(SaveCsvRelation(rel, path).ok());
  auto loaded = LoadCsvRelation(path, "t2");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->schema().num_attributes(), 2u);
  EXPECT_EQ(loaded->at(0, 0).AsString(), "Ann, A.");
  EXPECT_EQ(loaded->at(1, 1).AsString(), "Boston");
  std::remove(path.c_str());
}

TEST(CsvTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadCsvRelation("/nonexistent/file.csv", "x")
                  .status()
                  .IsIOError());
}

// ----------------------------------------------------------------- Stats --

TEST(StatsTest, ComputesBasicCounts) {
  Relation rel(RelationSchema("r", {StrAttr("v")}));
  rel.AppendUnchecked({S("abc")});
  rel.AppendUnchecked({S("abc")});
  rel.AppendUnchecked({S("defgh")});
  rel.AppendUnchecked({Value::Null()});
  const ColumnStats stats = ComputeColumnStats(rel, 0);
  EXPECT_EQ(stats.num_rows, 4u);
  EXPECT_EQ(stats.num_nulls, 1u);
  EXPECT_EQ(stats.num_distinct, 2u);
  EXPECT_DOUBLE_EQ(stats.avg_length, (3 + 3 + 5) / 3.0);
  EXPECT_DOUBLE_EQ(stats.numeric_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.null_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(stats.char_classes[0], 1.0);  // all letters
}

TEST(StatsTest, DetectsNumericContent) {
  Relation rel(RelationSchema(
      "r", {{"n", ValueType::kInt64, false}, StrAttr("s")}));
  rel.AppendUnchecked({I(42), S("123")});
  rel.AppendUnchecked({I(7), S("12x")});
  const ColumnStats ints = ComputeColumnStats(rel, 0);
  EXPECT_DOUBLE_EQ(ints.numeric_fraction, 1.0);
  EXPECT_DOUBLE_EQ(ints.char_classes[1], 1.0);  // digits only
  const ColumnStats strings = ComputeColumnStats(rel, 1);
  EXPECT_DOUBLE_EQ(strings.numeric_fraction, 0.5);  // "123" yes, "12x" no
}

TEST(StatsTest, ValueStatsMatchEquivalentColumn) {
  Relation rel(RelationSchema("r", {StrAttr("v")}));
  rel.AppendUnchecked({S("James Cameron")});
  rel.AppendUnchecked({S("Tim Burton")});
  const ColumnStats a = ComputeColumnStats(rel, 0);
  const ColumnStats b =
      ComputeValueStats({"James Cameron", "Tim Burton"});
  EXPECT_DOUBLE_EQ(a.avg_length, b.avg_length);
  EXPECT_DOUBLE_EQ(a.numeric_fraction, b.numeric_fraction);
  EXPECT_EQ(a.char_classes, b.char_classes);
}

TEST(StatsTest, ShapeSimilarityOrdersSensibly) {
  const ColumnStats names = ComputeValueStats(
      {"James Cameron", "David Yates", "Tim Burton", "Sofia Coppola"});
  const ColumnStats other_names =
      ComputeValueStats({"Grace Hopper", "Alan Turing"});
  const ColumnStats dates =
      ComputeValueStats({"2009-12-10", "1999-03-31", "2011-07-15"});
  // Names resemble names more than they resemble dates.
  EXPECT_GT(ShapeSimilarity(names, other_names),
            ShapeSimilarity(names, dates));
  // Similarity is symmetric and self-similarity is maximal.
  EXPECT_DOUBLE_EQ(ShapeSimilarity(names, dates),
                   ShapeSimilarity(dates, names));
  EXPECT_DOUBLE_EQ(ShapeSimilarity(names, names), 1.0);
}

TEST(StatsTest, EmptyColumn) {
  Relation rel(RelationSchema("r", {StrAttr("v")}));
  const ColumnStats stats = ComputeColumnStats(rel, 0);
  EXPECT_EQ(stats.num_rows, 0u);
  EXPECT_DOUBLE_EQ(stats.null_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(stats.avg_length, 0.0);
}

// ------------------------------------------------------------------ Dump --

TEST(DumpTest, RoundTripsFigure2) {
  Database db = MakeFigure2Db();
  std::stringstream buffer;
  ASSERT_TRUE(DumpDatabase(db, &buffer).ok());

  auto loaded = LoadDatabase(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), db.name());
  ASSERT_EQ(loaded->num_relations(), db.num_relations());
  EXPECT_EQ(loaded->TotalAttributes(), db.TotalAttributes());
  EXPECT_EQ(loaded->TotalRows(), db.TotalRows());
  EXPECT_EQ(loaded->foreign_keys().size(), db.foreign_keys().size());
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const Relation& a = db.relation(static_cast<RelationId>(r));
    const Relation& b = loaded->relation(static_cast<RelationId>(r));
    ASSERT_EQ(a.name(), b.name());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t row = 0; row < a.num_rows(); ++row) {
      EXPECT_EQ(a.row(static_cast<RowId>(row)),
                b.row(static_cast<RowId>(row)));
    }
  }
  EXPECT_TRUE(loaded->CheckReferentialIntegrity().ok());
}

TEST(DumpTest, RoundTripsTrickyValues) {
  Database db("edge");
  ASSERT_TRUE(db.AddRelation(RelationSchema(
                                 "t", {StrAttr("s"), IdAttr("i"),
                                       AttributeSchema{"d",
                                                       ValueType::kDouble,
                                                       false}}))
                  .ok());
  Relation* rel = db.mutable_relation(0);
  ASSERT_TRUE(rel->Append({S(""), I(-42), Value(0.1)}).ok());
  ASSERT_TRUE(
      rel->Append({S("comma, \"quote\"\nline"), Value::Null(), Value(-1e300)})
          .ok());
  ASSERT_TRUE(rel->Append({Value::Null(), I(INT64_MAX), Value::Null()}).ok());

  std::stringstream buffer;
  ASSERT_TRUE(DumpDatabase(db, &buffer).ok());
  auto loaded = LoadDatabase(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Relation& out = loaded->relation(0);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.at(0, 0).AsString(), "");        // empty string != NULL
  EXPECT_FALSE(out.at(0, 0).is_null());
  EXPECT_EQ(out.at(0, 1).AsInt64(), -42);
  EXPECT_DOUBLE_EQ(out.at(0, 2).AsDouble(), 0.1);
  EXPECT_TRUE(out.at(1, 1).is_null());
  EXPECT_DOUBLE_EQ(out.at(1, 2).AsDouble(), -1e300);
  EXPECT_EQ(out.at(2, 1).AsInt64(), INT64_MAX);
}

TEST(DumpTest, RejectsGarbage) {
  std::stringstream not_a_dump("hello world\n");
  EXPECT_TRUE(LoadDatabase(&not_a_dump).status().IsInvalidArgument());

  std::stringstream bad_record("mweaverdb 1\nbogus,record\n");
  EXPECT_TRUE(LoadDatabase(&bad_record).status().IsInvalidArgument());

  std::stringstream row_without_relation("mweaverdb 1\nrow,sfoo\n");
  EXPECT_TRUE(
      LoadDatabase(&row_without_relation).status().IsInvalidArgument());

  std::stringstream arity_lie(
      "mweaverdb 1\nrelation,t,2\nattr,a,string,1\nrow,sx\n");
  EXPECT_TRUE(LoadDatabase(&arity_lie).status().IsInvalidArgument());
}

TEST(DumpTest, FileRoundTrip) {
  Database db = MakeFigure2Db();
  const std::string path =
      (std::filesystem::temp_directory_path() / "mweaver_dump_test.mwdb")
          .string();
  ASSERT_TRUE(DumpDatabaseToFile(db, path).ok());
  auto loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalRows(), db.TotalRows());
  std::remove(path.c_str());

  EXPECT_TRUE(LoadDatabaseFromFile("/nonexistent/db.mwdb")
                  .status()
                  .IsIOError());
}

// ------------------------------------------------------------ JoinIndex --

// Nested-loop reference for JoinIndex::Joined: the live rows of `target`
// whose `target_attr` equals source row `row`'s `source_attr`, ascending;
// nothing for a NULL source value or a tombstoned source row.
std::vector<uint32_t> NestedLoopJoin(const Relation& source,
                                     AttributeId source_attr,
                                     const Relation& target,
                                     AttributeId target_attr, RowId row) {
  std::vector<uint32_t> joined;
  const Value& value = source.at(row, source_attr);
  if (value.is_null() || source.is_deleted(row)) return joined;
  for (size_t t = 0; t < target.num_rows(); ++t) {
    if (target.is_deleted(static_cast<RowId>(t))) continue;
    if (target.at(static_cast<RowId>(t), target_attr) == value) {
      joined.push_back(static_cast<uint32_t>(t));
    }
  }
  return joined;
}

ForeignKeyId fk_id(size_t f) { return static_cast<ForeignKeyId>(f); }

// Checks both directions of every FK of `db` against the reference.
void ExpectJoinIndexesMatchNestedLoops(const Database& db) {
  for (size_t f = 0; f < db.foreign_keys().size(); ++f) {
    const ForeignKey& fk = db.foreign_key(static_cast<ForeignKeyId>(f));
    for (bool from_side : {true, false}) {
      const Relation& source =
          db.relation(from_side ? fk.from_relation : fk.to_relation);
      const Relation& target =
          db.relation(from_side ? fk.to_relation : fk.from_relation);
      const AttributeId source_attr =
          from_side ? fk.from_attribute : fk.to_attribute;
      const AttributeId target_attr =
          from_side ? fk.to_attribute : fk.from_attribute;
      const JoinIndex& index =
          db.JoinIndexOn(static_cast<ForeignKeyId>(f), from_side);
      ASSERT_EQ(index.num_source_rows(), source.num_rows());
      for (size_t r = 0; r < source.num_rows(); ++r) {
        const std::span<const uint32_t> joined =
            index.Joined(static_cast<RowId>(r));
        EXPECT_EQ(std::vector<uint32_t>(joined.begin(), joined.end()),
                  NestedLoopJoin(source, source_attr, target, target_attr,
                                 static_cast<RowId>(r)))
            << "fk " << f << (from_side ? " from" : " to") << " side, row "
            << r;
      }
    }
  }
}

// A random row for one relation of MakeRandomJoinDb. Values come from
// small ranges, so keys repeat, some FK values dangle (no referenced row),
// and a share of them are NULL.
Row RandomJoinRow(const std::string& relation, int64_t nodes, Rng* rng) {
  const auto maybe_null = [&](int64_t hi) {
    return rng->Bernoulli(0.15) ? Value() : I(rng->UniformInt(0, hi));
  };
  // ids repeat (range < count) and parents reach past the largest id.
  if (relation == "node") {
    return {I(rng->UniformInt(0, nodes * 3 / 4)), maybe_null(nodes), S("n")};
  }
  if (relation == "edge") return {maybe_null(nodes), maybe_null(nodes)};
  return {maybe_null(6), S("t")};
}

constexpr int64_t kJoinDbNodes = 30;

// A seeded random database with the join shapes the index must get right:
//   node(id, parent, name)  node.parent -> node.id (self FK, two attrs)
//   edge(src, dst)          edge.src -> node.id, edge.dst -> node.id
//   tag(code, label)        tag.code -> tag.code (self FK, one attribute)
// Random rows of every relation are tombstoned.
Database MakeRandomJoinDb(uint64_t seed) {
  Rng rng(seed);
  Database db("joins");
  db.AddRelation(RelationSchema(
                     "node", {IdAttr("id"), IdAttr("parent"), StrAttr("name")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("edge", {IdAttr("src"), IdAttr("dst")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("tag", {IdAttr("code"), StrAttr("label")}))
      .ValueOrDie();
  db.AddForeignKey("node", "parent", "node", "id").ValueOrDie();
  db.AddForeignKey("edge", "src", "node", "id").ValueOrDie();
  db.AddForeignKey("edge", "dst", "node", "id").ValueOrDie();
  db.AddForeignKey("tag", "code", "tag", "code").ValueOrDie();
  const size_t rows[] = {5 + rng.Index(40), rng.Index(60), 1 + rng.Index(20)};
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const std::string& name = db.relation(static_cast<RelationId>(r)).name();
    for (size_t i = 0; i < rows[r]; ++i) {
      AddRow(&db, name, RandomJoinRow(name, kJoinDbNodes, &rng));
    }
  }
  for (size_t r = 0; r < db.num_relations(); ++r) {
    Relation* rel = db.mutable_relation(static_cast<RelationId>(r));
    for (size_t row = 0; row < rel->num_rows(); ++row) {
      if (rng.Bernoulli(0.2)) {
        EXPECT_TRUE(rel->Delete(static_cast<RowId>(row)).ok());
      }
    }
  }
  return db;
}

TEST(JoinIndexTest, MatchesNestedLoopsOnRandomDatabases) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Database db = MakeRandomJoinDb(seed);
    ExpectJoinIndexesMatchNestedLoops(db);
  }
}

TEST(JoinIndexTest, SelfReferencingForeignKeys) {
  const Database db = MakeRandomJoinDb(7);
  // node.parent -> node.id: the two directions are different joins.
  EXPECT_NE(&db.JoinIndexOn(0, true), &db.JoinIndexOn(0, false));
  // tag.code -> tag.code: one join, one index.
  EXPECT_EQ(&db.JoinIndexOn(3, true), &db.JoinIndexOn(3, false));
}

TEST(JoinIndexTest, IndexIsBuiltOnceAndReportsItsBytes) {
  const Database db = MakeFigure2Db();
  EXPECT_EQ(db.JoinIndexBytes(), 0u);
  const JoinIndex& index = db.JoinIndexOn(0, true);  // director.mid -> movie
  EXPECT_EQ(&db.JoinIndexOn(0, true), &index);
  EXPECT_EQ(db.JoinIndexBytes(), index.bytes());
  EXPECT_GT(index.bytes(), 0u);
  // Avatar (movie row 0) is directed in director row 0.
  const std::span<const uint32_t> directed = db.JoinIndexOn(0, false).Joined(0);
  EXPECT_EQ(std::vector<uint32_t>(directed.begin(), directed.end()),
            std::vector<uint32_t>{0});
}

// A chain of copy-on-write deltas, each appending and tombstoning rows of a
// random subset of relations: every index read after a delta must match
// the nested loops over the delta's rows, and an FK whose relations the
// delta left alone must keep the parent's index.
TEST(JoinIndexTest, DeltasRebuildChangedIndexesAndShareTheRest) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed * 31 + 7);
    Database current = MakeRandomJoinDb(seed);
    ExpectJoinIndexesMatchNestedLoops(current);  // builds every index
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      std::vector<RelationId> touched;
      for (RelationId r = 0; r < 3; ++r) {
        if (rng.Bernoulli(0.5)) touched.push_back(r);
      }
      Database next = current.CloneCow(touched);
      for (RelationId r : touched) {
        Relation* rel = next.mutable_relation(r);
        for (size_t i = 0, n = 1 + rng.Index(3); i < n; ++i) {
          ASSERT_TRUE(
              rel->Append(RandomJoinRow(rel->name(), kJoinDbNodes, &rng))
                  .ok());
        }
        for (size_t i = 0, n = rng.Index(3); i < n; ++i) {
          const auto row = static_cast<RowId>(rng.Index(rel->num_rows()));
          if (!rel->is_deleted(row)) {
            ASSERT_TRUE(rel->Delete(row).ok());
          }
        }
      }
      ExpectJoinIndexesMatchNestedLoops(next);
      const auto untouched = [&](RelationId r) {
        return std::find(touched.begin(), touched.end(), r) == touched.end();
      };
      std::set<const JoinIndex*> held;
      for (size_t f = 0; f < next.foreign_keys().size(); ++f) {
        const ForeignKey& fk = next.foreign_key(static_cast<ForeignKeyId>(f));
        for (bool from_side : {true, false}) {
          const JoinIndex* index = &next.JoinIndexOn(fk_id(f), from_side);
          held.insert(index);
          const bool shared =
              index == &current.JoinIndexOn(fk_id(f), from_side);
          EXPECT_EQ(shared, untouched(fk.from_relation) &&
                                untouched(fk.to_relation))
              << "fk " << f;
        }
      }
      // The delta holds its current indexes only, none of the parent's
      // indexes over the relations it changed.
      size_t held_bytes = 0;
      for (const JoinIndex* index : held) held_bytes += index->bytes();
      EXPECT_EQ(next.JoinIndexBytes(), held_bytes);
      ExpectJoinIndexesMatchNestedLoops(current);  // the parent is intact
      current = std::move(next);
    }
    // A change in place, on a database its caller owns, rebuilds too: also
    // through a Relation* taken before the indexes were built, which only
    // the stamp check can notice.
    Relation* edges = current.mutable_relation(current.FindRelation("edge"));
    ExpectJoinIndexesMatchNestedLoops(current);  // builds the dropped ones
    for (size_t r = 0; r < edges->num_rows(); ++r) {
      if (!edges->is_deleted(static_cast<RowId>(r))) {
        ASSERT_TRUE(edges->Delete(static_cast<RowId>(r)).ok());
        break;
      }
    }
    ExpectJoinIndexesMatchNestedLoops(current);
  }
}

}  // namespace
}  // namespace mweaver::storage
