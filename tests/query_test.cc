#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <set>

#include "core/mapping_path.h"
#include "query/executor.h"
#include "query/sql.h"
#include "test_util.h"
#include "text/fulltext_engine.h"

namespace mweaver::query {
namespace {

using ::mweaver::testing::MakeFigure2Db;
using core::MappingPath;
using core::TuplePath;
using core::VertexId;
using storage::Database;

constexpr storage::RelationId kMovie = 0;
constexpr storage::RelationId kPerson = 1;
constexpr storage::RelationId kDirector = 2;
constexpr storage::RelationId kWriter = 3;

MappingPath DirectorChain() {
  MappingPath p = MappingPath::SingleVertex(kMovie);
  const VertexId v_dir = p.AddVertex(kDirector, 0, 0, true);
  const VertexId v_per = p.AddVertex(kPerson, v_dir, 1, false);
  p.AddProjection(0, 0, 1);
  p.AddProjection(1, v_per, 1);
  return p;
}

MappingPath WriterChain() {
  MappingPath p = MappingPath::SingleVertex(kMovie);
  const VertexId v_wr = p.AddVertex(kWriter, 0, 2, true);
  const VertexId v_per = p.AddVertex(kPerson, v_wr, 3, false);
  p.AddProjection(0, 0, 1);
  p.AddProjection(1, v_per, 1);
  return p;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : db_(MakeFigure2Db()),
        engine_(&db_, text::MatchPolicy::Substring()),
        executor_(&engine_) {}

  Database db_;
  text::FullTextEngine engine_;
  PathExecutor executor_;
};

TEST_F(ExecutorTest, ConstrainedChainFindsSupport) {
  const auto paths = executor_.Execute(
      DirectorChain(), {{0, "Avatar"}, {1, "James Cameron"}});
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  EXPECT_EQ((*paths)[0].ProjectTargetValues(db_),
            (std::vector<std::string>{"Avatar", "James Cameron"}));
}

TEST_F(ExecutorTest, WrongJoinPathHasNoSupport) {
  // Harry Potter's writer is Rowling, not Yates (the paper's Example 1).
  const auto director = executor_.Execute(
      DirectorChain(), {{0, "Harry Potter"}, {1, "David Yates"}});
  ASSERT_TRUE(director.ok());
  EXPECT_EQ(director->size(), 1u);

  const auto writer = executor_.Execute(
      WriterChain(), {{0, "Harry Potter"}, {1, "David Yates"}});
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer->empty());
}

TEST_F(ExecutorTest, UnconstrainedEnumeratesAllJoinResults) {
  const auto paths = executor_.Execute(DirectorChain(), {});
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 3u);  // three director rows
}

TEST_F(ExecutorTest, PartialConstraints) {
  const auto paths = executor_.Execute(DirectorChain(), {{1, "Tim Burton"}});
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  EXPECT_EQ((*paths)[0].ProjectTargetValues(db_),
            (std::vector<std::string>{"Big Fish", "Tim Burton"}));
}

TEST_F(ExecutorTest, MaxResultsAndStopAtFirst) {
  ExecOptions capped;
  capped.max_results = 2;
  auto paths = executor_.Execute(DirectorChain(), {}, capped);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 2u);

  ExecOptions first;
  first.stop_at_first = true;
  paths = executor_.Execute(DirectorChain(), {}, first);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 1u);
}

TEST_F(ExecutorTest, HasSupport) {
  EXPECT_TRUE(*executor_.HasSupport(DirectorChain(),
                                    {{0, "Avatar"}, {1, "James Cameron"}}));
  EXPECT_FALSE(*executor_.HasSupport(
      WriterChain(), {{0, "Harry Potter"}, {1, "David Yates"}}));
}

TEST_F(ExecutorTest, EvaluateTargetDeduplicates) {
  const auto target = executor_.EvaluateTarget(DirectorChain());
  ASSERT_TRUE(target.ok());
  ASSERT_EQ(target->size(), 3u);
  // Rows are distinct and sorted (std::set iteration order).
  EXPECT_EQ((*target)[0],
            (std::vector<std::string>{"Avatar", "James Cameron"}));
}

TEST_F(ExecutorTest, MatchScoresRecordedOnTuplePaths) {
  const auto paths = executor_.Execute(DirectorChain(), {{0, "Avatar"}});
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  // Column 0 exact match scores 1.0; column 1 unconstrained scores 1.0.
  EXPECT_DOUBLE_EQ((*paths)[0].MeanMatchScore(), 1.0);

  const auto partial = executor_.Execute(DirectorChain(), {{0, "Ava"}});
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->size(), 1u);
  EXPECT_LT((*partial)[0].match_score(0), 1.0);
  EXPECT_GT((*partial)[0].match_score(0), 0.0);
}

TEST_F(ExecutorTest, EmptyMappingIsAnError) {
  EXPECT_TRUE(executor_.Execute(MappingPath(), {}).status()
                  .IsInvalidArgument());
}

TEST_F(ExecutorTest, TuplePathsMirrorMappingStructure) {
  const MappingPath mapping = DirectorChain();
  const auto paths = executor_.Execute(mapping, {{0, "Big Fish"}});
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  const TuplePath& tp = (*paths)[0];
  ASSERT_EQ(tp.num_vertices(), mapping.num_vertices());
  for (size_t v = 0; v < tp.num_vertices(); ++v) {
    EXPECT_EQ(tp.vertex(static_cast<VertexId>(v)).relation,
              mapping.vertex(static_cast<VertexId>(v)).relation);
    EXPECT_EQ(tp.vertex(static_cast<VertexId>(v)).parent,
              mapping.vertex(static_cast<VertexId>(v)).parent);
  }
  EXPECT_EQ(tp.ExtractMappingPath().Canonical(), mapping.Canonical());
}

// ---------------------------------------------------------------- Explain --

TEST_F(ExecutorTest, ExplainDescribesThePlan) {
  auto plan = executor_.Explain(DirectorChain(),
                                {{0, "Avatar"}, {1, "James Cameron"}});
  ASSERT_TRUE(plan.ok());
  // Starts from the most selective constrained vertex and joins via FK
  // indexes.
  EXPECT_NE(plan->find("scan"), std::string::npos);
  EXPECT_NE(plan->find("index join"), std::string::npos);
  EXPECT_NE(plan->find("full-text candidates (1 rows)"), std::string::npos);

  auto empty = executor_.Explain(DirectorChain(), {{0, "zzz nothing"}});
  ASSERT_TRUE(empty.ok());
  EXPECT_NE(empty->find("provably empty"), std::string::npos);

  auto unconstrained = executor_.Explain(DirectorChain());
  ASSERT_TRUE(unconstrained.ok());
  EXPECT_NE(unconstrained->find("scan movie (3 rows)"), std::string::npos);
}

// ------------------------------------------- Brute-force cross-checking --

namespace {

// Nested-loop reference evaluation of a mapping path: enumerates the full
// cross product of the involved relations and keeps assignments satisfying
// every join condition, every keyword constraint, and the same-FK-sibling
// distinctness normal form. Exponential, for tiny test inputs only.
std::set<std::string> BruteForceCanonicals(
    const text::FullTextEngine& engine, const MappingPath& mapping,
    const SampleMap& samples) {
  const storage::Database& db = engine.db();
  const size_t n = mapping.num_vertices();
  std::vector<storage::RowId> assignment(n, 0);
  std::set<std::string> out;

  std::function<void(size_t)> recurse = [&](size_t v) {
    if (v == n) {
      // Join conditions + normal form are exactly IsConsistent; keyword
      // constraints checked per projection.
      TuplePath tp = TuplePath::SingleVertex(mapping.vertex(0).relation,
                                             assignment[0]);
      for (size_t i = 1; i < n; ++i) {
        const core::PathVertex& pv = mapping.vertex(static_cast<VertexId>(i));
        tp.AddVertex(pv.relation, assignment[i], pv.parent, pv.fk_to_parent,
                     pv.is_from_side);
      }
      for (const core::Projection& p : mapping.projections()) {
        tp.AddProjection(p.target_column, p.vertex, p.attribute, 1.0);
      }
      if (!tp.IsConsistent(db)) return;
      for (const core::Projection& p : mapping.projections()) {
        auto it = samples.find(p.target_column);
        if (it == samples.end() || it->second.empty()) continue;
        const text::AttributeRef ref{mapping.vertex(p.vertex).relation,
                                     p.attribute};
        if (!engine.RowContains(ref, assignment[static_cast<size_t>(
                                         p.vertex)],
                                it->second)) {
          return;
        }
      }
      out.insert(tp.Canonical());
      return;
    }
    const storage::Relation& rel =
        db.relation(mapping.vertex(static_cast<VertexId>(v)).relation);
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      assignment[v] = static_cast<storage::RowId>(r);
      recurse(v + 1);
    }
  };
  recurse(0);
  return out;
}

}  // namespace

TEST_F(ExecutorTest, MatchesBruteForceOnRandomChains) {
  // Every 2- and 3-vertex chain over the Figure-2 catalog, with and without
  // constraints, must agree with the nested-loop reference.
  struct Case {
    MappingPath mapping;
    SampleMap samples;
  };
  std::vector<Case> cases;
  cases.push_back({DirectorChain(), {}});
  cases.push_back({DirectorChain(), {{0, "Avatar"}}});
  cases.push_back({DirectorChain(), {{0, "Avatar"}, {1, "James Cameron"}}});
  cases.push_back({WriterChain(), {}});
  cases.push_back({WriterChain(), {{0, "Harry Potter"}, {1, "David Yates"}}});
  {
    // Branching shape: movie with both a director and a writer projected.
    MappingPath tree = MappingPath::SingleVertex(kMovie);
    const VertexId d = tree.AddVertex(kDirector, 0, 0, true);
    const VertexId pd = tree.AddVertex(kPerson, d, 1, false);
    const VertexId w = tree.AddVertex(kWriter, 0, 2, true);
    const VertexId pw = tree.AddVertex(kPerson, w, 3, false);
    tree.AddProjection(0, 0, 1);
    tree.AddProjection(1, pd, 1);
    tree.AddProjection(2, pw, 1);
    cases.push_back({tree, {}});
    cases.push_back({tree, {{1, "James Cameron"}, {2, "James Cameron"}}});
  }
  {
    // Duplicate-sibling shape: two director branches off one movie; the
    // normal form forces distinct director tuples.
    MappingPath twins = MappingPath::SingleVertex(kMovie);
    const VertexId d1 = twins.AddVertex(kDirector, 0, 0, true);
    const VertexId p1 = twins.AddVertex(kPerson, d1, 1, false);
    const VertexId d2 = twins.AddVertex(kDirector, 0, 0, true);
    const VertexId p2 = twins.AddVertex(kPerson, d2, 1, false);
    twins.AddProjection(0, p1, 1);
    twins.AddProjection(1, p2, 1);
    cases.push_back({twins, {}});
  }

  for (size_t i = 0; i < cases.size(); ++i) {
    const auto expected =
        BruteForceCanonicals(engine_, cases[i].mapping, cases[i].samples);
    auto actual = executor_.Execute(cases[i].mapping, cases[i].samples);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    std::set<std::string> got;
    for (const TuplePath& tp : *actual) got.insert(tp.Canonical());
    EXPECT_EQ(got, expected) << "case " << i;
    EXPECT_EQ(got.size(), actual->size()) << "duplicates in case " << i;
  }
}

// ------------------------------------------------------ semi-join narrowing --

// Locations Hub (lid 0) and Elsewhere (lid 1); movie m has title titles[m]
// and one filmedin link, to location lids[m]; links in movie order.
Database MakeHubDb(const std::vector<std::string>& titles,
                   const std::vector<int64_t>& lids) {
  using ::mweaver::testing::AddRow;
  using ::mweaver::testing::I;
  using ::mweaver::testing::IdAttr;
  using ::mweaver::testing::S;
  using ::mweaver::testing::StrAttr;
  using storage::RelationSchema;
  Database db("hub");
  db.AddRelation(RelationSchema("location", {IdAttr("lid"), StrAttr("name")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("movie", {IdAttr("mid"), StrAttr("title")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("filmedin", {IdAttr("mid"), IdAttr("lid")}))
      .ValueOrDie();
  db.AddForeignKey("filmedin", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("filmedin", "lid", "location", "lid").ValueOrDie();
  AddRow(&db, "location", {I(0), S("Hub")});
  AddRow(&db, "location", {I(1), S("Elsewhere")});
  for (size_t m = 0; m < titles.size(); ++m) {
    const auto mid = static_cast<int64_t>(m);
    AddRow(&db, "movie", {I(mid), S(titles[m])});
    AddRow(&db, "filmedin", {I(mid), I(lids[m])});
  }
  return db;
}

// Movies Alpha, Beta and Gamma, then fillers; every movie but Gamma was
// filmed at the hub.
Database MakeNamedHubDb(size_t movies) {
  std::vector<std::string> titles = {"Alpha", "Beta", "Gamma"};
  std::vector<int64_t> lids = {0, 0, 1};
  while (titles.size() < movies) {
    titles.push_back("Filler " + std::to_string(titles.size()));
    lids.push_back(0);
  }
  return MakeHubDb(titles, lids);
}

// location[0:name] with `branches` filmedin--movie branches, branch b's
// movie title projected as column b + 1. The start vertex is the location,
// so the plan assigns every filmedin link before it reaches a movie
// constraint: un-narrowed, the enumeration visits about
// links^branches nodes, far past the budget that triggers the narrowing.
MappingPath HubStar(size_t branches) {
  constexpr storage::RelationId kLocation = 0, kHubMovie = 1, kFilmedin = 2;
  MappingPath p = MappingPath::SingleVertex(kLocation);
  p.AddProjection(0, 0, 1);
  for (size_t b = 0; b < branches; ++b) {
    const VertexId link = p.AddVertex(kFilmedin, 0, 1, true);
    const VertexId movie = p.AddVertex(kHubMovie, link, 0, false);
    p.AddProjection(static_cast<int>(b) + 1, movie, 1);
  }
  return p;
}

TEST(SemiJoinNarrowingTest, NarrowedRunEmitsTheSamePathsInOrder) {
  const Database db = MakeNamedHubDb(64);
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const PathExecutor executor(&engine);
  const SampleMap samples{{0, "Hub"}, {1, "Alpha"}, {2, "Beta"}};
  // Every hub link but Alpha's and Beta's completes branch 3.
  auto all = executor.Execute(HubStar(3), samples);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 64u - 3u);
  std::set<std::string> distinct;
  for (const TuplePath& tp : *all) distinct.insert(tp.Canonical());
  EXPECT_EQ(distinct.size(), all->size());
  // Alpha's and Beta's links come first, so the first five paths are found
  // within the node budget, without the narrowing; the narrowed full run
  // must start with the same five.
  ExecOptions capped;
  capped.max_results = 5;
  auto first = executor.Execute(HubStar(3), samples, capped);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 5u);
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].Canonical(), (*all)[i].Canonical()) << i;
  }
}

TEST(SemiJoinNarrowingTest, DisprovesSupportWithoutEnumeratingLinks) {
  // Four branches over ~300 hub links: an un-narrowed enumeration would
  // visit ~10^9 nodes and run into the deadline.
  const Database db = MakeNamedHubDb(300);
  const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
  const PathExecutor executor(&engine);
  const std::vector<SampleMap> unsupported = {
      // Gamma was not filmed at the hub.
      {{0, "Hub"}, {1, "Gamma"}},
      // Alpha has one link, but two branches need distinct links.
      {{0, "Hub"}, {1, "Alpha"}, {2, "Alpha"}},
  };
  for (const SampleMap& samples : unsupported) {
    core::ExecutionContext ctx;
    ctx.set_deadline(core::SearchClock::now() + std::chrono::seconds(20));
    auto supported = executor.HasSupport(HubStar(4), samples, &ctx);
    ASSERT_TRUE(supported.ok());
    EXPECT_FALSE(*supported) << samples.at(1);
    EXPECT_FALSE(ctx.stop_requested()) << samples.at(1);
  }
  core::ExecutionContext ctx;
  ctx.set_deadline(core::SearchClock::now() + std::chrono::seconds(20));
  EXPECT_TRUE(*executor.HasSupport(
      HubStar(4), {{0, "Hub"}, {3, "Alpha"}, {4, "Beta"}}, &ctx));
}

TEST(SemiJoinNarrowingTest, MatchesNestedLoopsOnRandomHubs) {
  // Titles over a three-word alphabet, so one sample matches many movies;
  // the reference loops over every triple of distinct links in row order,
  // the order the executor emits its paths in.
  const std::vector<std::string> words = {"red", "blue", "green"};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<std::string> titles;
    std::vector<int64_t> lids;
    for (size_t m = 0; m < 40; ++m) {
      titles.push_back(rng.Pick(words) + " " + rng.Pick(words));
      lids.push_back(rng.Bernoulli(0.8) ? 0 : 1);
    }
    const Database db = MakeHubDb(titles, lids);
    const text::FullTextEngine engine(&db, text::MatchPolicy::Substring());
    const PathExecutor executor(&engine);
    SampleMap samples{{0, "Hub"}};
    for (int column = 1; column <= 3; ++column) {
      const size_t pick = rng.Index(words.size() + 2);
      if (pick < words.size()) {
        samples[column] = words[pick];
      } else if (pick == words.size()) {
        samples[column] = words[0] + " " + words[1];
      }
    }
    const text::AttributeRef title{1, 1};
    std::vector<std::vector<storage::RowId>> expected;
    const auto n = static_cast<storage::RowId>(titles.size());
    auto fits = [&](int column, storage::RowId link) {
      if (lids[static_cast<size_t>(link)] != 0) return false;
      auto it = samples.find(column);
      return it == samples.end() || engine.RowContains(title, link, it->second);
    };
    for (storage::RowId a = 0; a < n; ++a) {
      for (storage::RowId b = 0; b < n; ++b) {
        for (storage::RowId c = 0; c < n; ++c) {
          if (a == b || a == c || b == c) continue;
          if (fits(1, a) && fits(2, b) && fits(3, c)) {
            expected.push_back({a, b, c});
          }
        }
      }
    }
    auto paths = executor.Execute(HubStar(3), samples);
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    std::vector<std::vector<storage::RowId>> got;
    for (const TuplePath& tp : *paths) {
      got.push_back({tp.row(1), tp.row(3), tp.row(5)});
    }
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

// -------------------------------------------------------------------- SQL --

TEST(SqlTest, RendersJoinChainWithPredicates) {
  const Database db = MakeFigure2Db();
  const std::string sql =
      ToSql(db, DirectorChain(), {{0, "Name"}, {1, "Director"}},
            {{1, "Cameron"}});
  EXPECT_EQ(sql,
            "SELECT DISTINCT t0.title AS Name, t2.name AS Director\n"
            "FROM movie AS t0\n"
            "JOIN director AS t1 ON t1.mid = t0.mid\n"
            "JOIN person AS t2 ON t2.pid = t1.pid\n"
            "WHERE t2.name LIKE '%Cameron%';");
}

TEST(SqlTest, DefaultColumnNamesAndQuoteEscaping) {
  const Database db = MakeFigure2Db();
  const std::string sql = ToSql(db, DirectorChain(), {}, {{0, "O'Brien"}});
  EXPECT_NE(sql.find("AS col0"), std::string::npos);
  EXPECT_NE(sql.find("AS col1"), std::string::npos);
  EXPECT_NE(sql.find("O''Brien"), std::string::npos);
}

TEST(SqlTest, RendersReversedOrientation) {
  // The same logical chain rooted at person: join conditions must follow
  // the FK attributes regardless of which side is the tree parent.
  const Database db = MakeFigure2Db();
  MappingPath p = MappingPath::SingleVertex(kPerson);
  const VertexId v_dir = p.AddVertex(kDirector, 0, 1, true);
  const VertexId v_mov = p.AddVertex(kMovie, v_dir, 0, false);
  p.AddProjection(0, v_mov, 1);
  p.AddProjection(1, 0, 1);
  EXPECT_EQ(ToSql(db, p),
            "SELECT DISTINCT t2.title AS col0, t0.name AS col1\n"
            "FROM person AS t0\n"
            "JOIN director AS t1 ON t1.pid = t0.pid\n"
            "JOIN movie AS t2 ON t2.mid = t1.mid;");
}

TEST(SqlTest, SingleVertexMapping) {
  const Database db = MakeFigure2Db();
  MappingPath p = MappingPath::SingleVertex(kMovie);
  p.AddProjection(0, 0, 1);
  EXPECT_EQ(ToSql(db, p),
            "SELECT DISTINCT t0.title AS col0\nFROM movie AS t0;");
}

}  // namespace
}  // namespace mweaver::query
