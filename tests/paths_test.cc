// Tests for MappingPath / TuplePath (Definitions 3-5) and Weave (Alg 6).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <type_traits>

#include "common/random.h"
#include "core/canonical_key.h"
#include "core/mapping_path.h"
#include "core/tuple_path.h"
#include "test_util.h"

namespace mweaver::core {
namespace {

using ::mweaver::testing::MakeFigure2Db;
using storage::Database;

// Figure-2 catalog constants (see MakeFigure2Db): relations movie=0,
// person=1, director=2, writer=3; FKs 0: director.mid->movie.mid,
// 1: director.pid->person.pid, 2: writer.mid->movie.mid,
// 3: writer.pid->person.pid. Attribute 1 is title/name.
constexpr storage::RelationId kMovie = 0;
constexpr storage::RelationId kPerson = 1;
constexpr storage::RelationId kDirector = 2;
constexpr storage::RelationId kWriter = 3;

// movie[0:title] - director - person[1:name], rooted at movie.
MappingPath DirectorChain() {
  MappingPath p = MappingPath::SingleVertex(kMovie);
  const VertexId v_dir = p.AddVertex(kDirector, 0, 0, /*is_from_side=*/true);
  const VertexId v_per = p.AddVertex(kPerson, v_dir, 1, false);
  p.AddProjection(0, 0, 1);
  p.AddProjection(1, v_per, 1);
  return p;
}

// The same logical path rooted at person instead.
MappingPath DirectorChainFromPerson() {
  MappingPath p = MappingPath::SingleVertex(kPerson);
  const VertexId v_dir = p.AddVertex(kDirector, 0, 1, true);
  const VertexId v_mov = p.AddVertex(kMovie, v_dir, 0, false);
  p.AddProjection(0, v_mov, 1);
  p.AddProjection(1, 0, 1);
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

// ----------------------------------------------------------- MappingPath --

TEST(MappingPathTest, SizesAndColumns) {
  const MappingPath p = DirectorChain();
  EXPECT_EQ(p.num_vertices(), 3u);
  EXPECT_EQ(p.num_joins(), 2u);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.TargetColumns(), (std::vector<int>{0, 1}));
  EXPECT_NE(p.FindProjection(0), nullptr);
  EXPECT_EQ(p.FindProjection(7), nullptr);
}

TEST(MappingPathTest, CanonicalInvariantUnderRerooting) {
  EXPECT_EQ(DirectorChain().Canonical(),
            DirectorChainFromPerson().Canonical());
  EXPECT_EQ(DirectorChain(), DirectorChainFromPerson());
}

TEST(MappingPathTest, CanonicalDistinguishesEdgeAndProjection) {
  EXPECT_NE(DirectorChain().Canonical(), WriterChain().Canonical());
  // Same structure, different projected column index.
  MappingPath p = MappingPath::SingleVertex(kMovie);
  p.AddProjection(0, 0, 1);
  MappingPath q = MappingPath::SingleVertex(kMovie);
  q.AddProjection(1, 0, 1);
  EXPECT_NE(p.Canonical(), q.Canonical());
}

TEST(MappingPathTest, TerminalsProjected) {
  EXPECT_TRUE(DirectorChain().TerminalsProjected());

  // Drop the person-side projection: person becomes an unprojected leaf.
  MappingPath p = MappingPath::SingleVertex(kMovie);
  const VertexId v_dir = p.AddVertex(kDirector, 0, 0, true);
  p.AddVertex(kPerson, v_dir, 1, false);
  p.AddProjection(0, 0, 1);
  EXPECT_FALSE(p.TerminalsProjected());

  // Single vertex without projection: not terminal-projected.
  MappingPath single = MappingPath::SingleVertex(kMovie);
  EXPECT_FALSE(single.TerminalsProjected());
  single.AddProjection(0, 0, 1);
  EXPECT_TRUE(single.TerminalsProjected());
}

TEST(MappingPathTest, DegreeAndChildren) {
  const MappingPath p = DirectorChain();
  EXPECT_EQ(p.Degree(0), 1u);  // movie: one edge to director
  EXPECT_EQ(p.Degree(1), 2u);  // director: movie + person
  EXPECT_EQ(p.Degree(2), 1u);
  EXPECT_EQ(p.Children(0), (std::vector<VertexId>{1}));
  EXPECT_EQ(p.Children(1), (std::vector<VertexId>{2}));
  EXPECT_TRUE(p.Children(2).empty());
}

TEST(MappingPathTest, ToStringNamesRelationsAndAttributes) {
  const Database db = MakeFigure2Db();
  const std::string s = DirectorChain().ToString(db);
  EXPECT_NE(s.find("movie"), std::string::npos);
  EXPECT_NE(s.find("director"), std::string::npos);
  EXPECT_NE(s.find("person"), std::string::npos);
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

// ------------------------------------------------------------- TuplePath --

// Instantiates the director chain for movie m, director row d, person p.
TuplePath DirectorTuplePath(storage::RowId m, storage::RowId d,
                            storage::RowId p, int col_a = 0, int col_b = 1) {
  TuplePath tp = TuplePath::SingleVertex(kMovie, m);
  const VertexId v_dir = tp.AddVertex(kDirector, d, 0, 0, true);
  const VertexId v_per = tp.AddVertex(kPerson, p, v_dir, 1, false);
  tp.AddProjection(col_a, 0, 1, 1.0);
  tp.AddProjection(col_b, v_per, 1, 1.0);
  return tp;
}

TuplePath WriterTuplePath(storage::RowId m, storage::RowId w,
                          storage::RowId p, int col_a, int col_b) {
  TuplePath tp = TuplePath::SingleVertex(kMovie, m);
  const VertexId v_wr = tp.AddVertex(kWriter, w, 0, 2, true);
  const VertexId v_per = tp.AddVertex(kPerson, p, v_wr, 3, false);
  tp.AddProjection(col_a, 0, 1, 1.0);
  tp.AddProjection(col_b, v_per, 1, 1.0);
  return tp;
}

TEST(TuplePathTest, ExtractMappingPathDropsRows) {
  const TuplePath tp = DirectorTuplePath(0, 0, 0);
  EXPECT_EQ(tp.ExtractMappingPath().Canonical(), DirectorChain().Canonical());
}

TEST(TuplePathTest, CanonicalIncludesRows) {
  EXPECT_NE(DirectorTuplePath(0, 0, 0).Canonical(),
            DirectorTuplePath(1, 1, 1).Canonical());
  EXPECT_EQ(DirectorTuplePath(0, 0, 0).Canonical(),
            DirectorTuplePath(0, 0, 0).Canonical());
}

TEST(TuplePathTest, ProjectTargetValues) {
  const Database db = MakeFigure2Db();
  const TuplePath tp = DirectorTuplePath(0, 0, 0);
  EXPECT_EQ(tp.ProjectTargetValues(db),
            (std::vector<std::string>{"Avatar", "James Cameron"}));
}

TEST(TuplePathTest, MeanMatchScore) {
  TuplePath tp = TuplePath::SingleVertex(kMovie, 0);
  tp.AddProjection(0, 0, 1, 0.5);
  tp.AddProjection(1, 0, 1, 1.0);
  EXPECT_DOUBLE_EQ(tp.MeanMatchScore(), 0.75);
}

// ----------------------------------------------------------------- Weave --

TEST(WeaveTest, GraftCreatesBranch) {
  // Base: movie#0 -director- person#0 covering {0,1}.
  // Pairwise: movie#0 -writer- person#0 covering {0,2}.
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  const TuplePath ptp = WriterTuplePath(0, 0, 0, 0, 2);
  const auto woven = TuplePath::Weave(base, ptp);
  ASSERT_TRUE(woven.has_value());
  EXPECT_EQ(woven->size(), 3u);
  EXPECT_EQ(woven->num_vertices(), 5u);  // writer+person grafted
  EXPECT_EQ(woven->TargetColumns(), (std::vector<int>{0, 1, 2}));
}

TEST(WeaveTest, MergeReusesExistingVertices) {
  // Base covers {0,1} over movie#0-director#0-person#0. The pairwise path
  // person#0 -director#0- movie#0 covers {1,2} with 2 projected from the
  // movie end; every vertex coincides, so weaving should merge fully and
  // only add the projection.
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  TuplePath ptp = TuplePath::SingleVertex(kPerson, 0);
  const VertexId v_dir = ptp.AddVertex(kDirector, 0, 0, 1, true);
  const VertexId v_mov = ptp.AddVertex(kMovie, 0, v_dir, 0, false);
  ptp.AddProjection(1, 0, 1, 1.0);
  ptp.AddProjection(2, v_mov, 1, 1.0);

  const auto woven = TuplePath::Weave(base, ptp);
  ASSERT_TRUE(woven.has_value());
  EXPECT_EQ(woven->size(), 3u);
  EXPECT_EQ(woven->num_vertices(), 3u);  // fully merged
}

TEST(WeaveTest, FuseFailsOnDifferentTuples) {
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  // Pairwise anchored on a different movie tuple.
  const TuplePath ptp = WriterTuplePath(1, 1, 2, 0, 2);
  EXPECT_FALSE(TuplePath::Weave(base, ptp).has_value());
}

TEST(WeaveTest, SingleVertexPairwiseAddsProjectionInPlace) {
  // Both samples live in the same movie tuple (e.g. title + release date).
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  TuplePath ptp = TuplePath::SingleVertex(kMovie, 0);
  ptp.AddProjection(0, 0, 1, 1.0);
  ptp.AddProjection(2, 0, 1, 0.5);
  const auto woven = TuplePath::Weave(base, ptp);
  ASSERT_TRUE(woven.has_value());
  EXPECT_EQ(woven->num_vertices(), 3u);
  EXPECT_EQ(woven->size(), 3u);
  const Projection* p2 = woven->FindProjection(2);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->vertex, 0);  // landed on the fused movie vertex
}

TEST(WeaveTest, PartialMergeThenGraft) {
  // Base: movie#1 - director#1 - person#1, covering {0,1}.
  // Pairwise: movie#1 - director#1 - person#1 ... same chain but projecting
  // column 2 from person: full merge expected. Then a variant with a
  // different director row must graft below the movie vertex.
  const TuplePath base = DirectorTuplePath(1, 1, 1);

  TuplePath same = DirectorTuplePath(1, 1, 1, 0, 2);
  auto merged = TuplePath::Weave(base, same);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->num_vertices(), 3u);

  TuplePath different = DirectorTuplePath(1, 2, 3, 0, 2);
  auto grafted = TuplePath::Weave(base, different);
  ASSERT_TRUE(grafted.has_value());
  EXPECT_EQ(grafted->num_vertices(), 5u);
}

TEST(WeaveTest, WovenPathsAreInstanceConsistent) {
  const Database db = MakeFigure2Db();
  const TuplePath base = DirectorTuplePath(0, 0, 0);
  EXPECT_TRUE(base.IsConsistent(db));

  const TuplePath ptp = WriterTuplePath(0, 0, 0, 0, 2);
  const auto woven = TuplePath::Weave(base, ptp);
  ASSERT_TRUE(woven.has_value());
  EXPECT_TRUE(woven->IsConsistent(db));

  // A fabricated path with a broken join is flagged.
  TuplePath broken = TuplePath::SingleVertex(kMovie, 0);
  const VertexId v_dir = broken.AddVertex(kDirector, 1, 0, 0, true);
  broken.AddVertex(kPerson, 0, v_dir, 1, false);
  broken.AddProjection(0, 0, 1, 1.0);
  broken.AddProjection(1, 2, 1, 1.0);
  // director row 1 joins movie#1, not movie#0.
  EXPECT_FALSE(broken.IsConsistent(db));

  // Out-of-range rows are flagged too.
  TuplePath out_of_range = TuplePath::SingleVertex(kMovie, 99);
  out_of_range.AddProjection(0, 0, 1, 1.0);
  EXPECT_FALSE(out_of_range.IsConsistent(db));
}

TEST(WeaveTest, ResultEqualRegardlessOfWeaveOrder) {
  // Weaving {0,1} then {0,2} vs {0,2} then {0,1} must produce canonically
  // identical complete paths.
  const TuplePath d = DirectorTuplePath(0, 0, 0, 0, 1);
  const TuplePath w = WriterTuplePath(0, 0, 0, 0, 2);
  TuplePath d2 = DirectorTuplePath(0, 0, 0, 0, 1);

  const auto a = TuplePath::Weave(d, w);
  const auto b = TuplePath::Weave(w, d2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->Canonical(), b->Canonical());
}

// ------------------------------------------ Canonical-encoding fuzzing --

namespace {

// A synthetic random labeled tree (ids need not reference a real catalog:
// canonicalization is purely structural).
struct RandomTree {
  MappingPath path;
  // Undirected edge list: (a, b, fk, b_is_from_side).
  struct Edge {
    VertexId a;
    VertexId b;
    storage::ForeignKeyId fk;
    bool b_is_from;
  };
  std::vector<Edge> edges;
};

RandomTree MakeRandomTree(Rng* rng, size_t n) {
  RandomTree t;
  t.path =
      MappingPath::SingleVertex(static_cast<storage::RelationId>(
          rng->UniformInt(0, 4)));
  for (size_t i = 1; i < n; ++i) {
    const VertexId parent =
        static_cast<VertexId>(rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    const auto fk = static_cast<storage::ForeignKeyId>(rng->UniformInt(0, 3));
    const bool is_from = rng->Bernoulli(0.5);
    const VertexId child = t.path.AddVertex(
        static_cast<storage::RelationId>(rng->UniformInt(0, 4)), parent, fk,
        is_from);
    t.edges.push_back(RandomTree::Edge{parent, child, fk, is_from});
  }
  // Random projections; every vertex gets one with probability 1/2, and
  // vertex 0 always does (so the path is non-degenerate).
  int column = 0;
  for (size_t v = 0; v < n; ++v) {
    if (v == 0 || rng->Bernoulli(0.5)) {
      t.path.AddProjection(column++, static_cast<VertexId>(v),
                           static_cast<storage::AttributeId>(
                               rng->UniformInt(0, 3)));
    }
  }
  return t;
}

// Rebuilds the same logical tree rooted at `root` (BFS re-rooting).
MappingPath Reroot(const RandomTree& t, VertexId root) {
  const size_t n = t.path.num_vertices();
  // Undirected adjacency with per-edge metadata.
  struct Adj {
    VertexId neighbor;
    storage::ForeignKeyId fk;
    bool neighbor_is_from;
  };
  std::vector<std::vector<Adj>> adj(n);
  for (const RandomTree::Edge& e : t.edges) {
    adj[static_cast<size_t>(e.a)].push_back(Adj{e.b, e.fk, e.b_is_from});
    adj[static_cast<size_t>(e.b)].push_back(Adj{e.a, e.fk, !e.b_is_from});
  }
  MappingPath out = MappingPath::SingleVertex(t.path.vertex(root).relation);
  std::vector<VertexId> new_id(n, kNoVertex);
  new_id[static_cast<size_t>(root)] = 0;
  std::deque<VertexId> queue{root};
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    for (const Adj& e : adj[static_cast<size_t>(u)]) {
      if (new_id[static_cast<size_t>(e.neighbor)] != kNoVertex) continue;
      new_id[static_cast<size_t>(e.neighbor)] = out.AddVertex(
          t.path.vertex(e.neighbor).relation,
          new_id[static_cast<size_t>(u)], e.fk, e.neighbor_is_from);
      queue.push_back(e.neighbor);
    }
  }
  for (const Projection& p : t.path.projections()) {
    out.AddProjection(p.target_column,
                      new_id[static_cast<size_t>(p.vertex)], p.attribute);
  }
  return out;
}

}  // namespace

TEST(CanonicalFuzzTest, InvariantUnderRerooting) {
  Rng rng(20120520);
  for (int round = 0; round < 200; ++round) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 8));
    const RandomTree tree = MakeRandomTree(&rng, n);
    const std::string canonical = tree.path.Canonical();
    for (size_t root = 0; root < n; ++root) {
      const MappingPath rerooted = Reroot(tree, static_cast<VertexId>(root));
      ASSERT_EQ(rerooted.Canonical(), canonical)
          << "round " << round << " root " << root;
    }
  }
}

TEST(CanonicalFuzzTest, DistinguishesMutations) {
  // Mutating any label component (relation, fk, orientation, projection)
  // must change the canonical form.
  Rng rng(77);
  size_t distinguished = 0;
  for (int round = 0; round < 100; ++round) {
    const RandomTree tree = MakeRandomTree(&rng, 5);
    // Re-build with one vertex's relation changed.
    MappingPath changed = MappingPath::SingleVertex(
        static_cast<storage::RelationId>(
            tree.path.vertex(0).relation + 100));
    for (size_t i = 1; i < tree.path.num_vertices(); ++i) {
      const PathVertex& v = tree.path.vertex(static_cast<VertexId>(i));
      changed.AddVertex(v.relation, v.parent, v.fk_to_parent, v.is_from_side);
    }
    for (const Projection& p : tree.path.projections()) {
      changed.AddProjection(p.target_column, p.vertex, p.attribute);
    }
    if (changed.Canonical() != tree.path.Canonical()) ++distinguished;
  }
  EXPECT_EQ(distinguished, 100u);
}

// ------------------------------------------------ Compact canonical keys --

namespace {

// A labeled tree held as an edge list, so it can be perturbed and rebuilt
// as a MappingPath or TuplePath under any rooting.
struct LabeledTree {
  struct Vertex {
    storage::RelationId relation;
    storage::RowId row;
  };
  struct Edge {
    VertexId a;
    VertexId b;
    storage::ForeignKeyId fk;
    bool b_is_from;
  };
  std::vector<Vertex> vertices;
  std::vector<Edge> edges;
  std::vector<Projection> projections;
};

// Small label alphabets so distinct random trees are often isomorphic.
LabeledTree MakeLabeledTree(Rng* rng, size_t n, bool chain) {
  LabeledTree t;
  for (size_t i = 0; i < n; ++i) {
    t.vertices.push_back({static_cast<storage::RelationId>(
                              rng->UniformInt(0, 1)),
                          rng->UniformInt(0, 2)});
    if (i == 0) continue;
    const VertexId parent =
        chain ? static_cast<VertexId>(i - 1)
              : static_cast<VertexId>(
                    rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    t.edges.push_back({parent, static_cast<VertexId>(i),
                       static_cast<storage::ForeignKeyId>(
                           rng->UniformInt(0, 1)),
                       rng->Bernoulli(0.5)});
  }
  int column = 0;
  for (size_t v = 0; v < n; ++v) {
    if (v == 0 || rng->Bernoulli(0.4)) {
      t.projections.push_back({column++, static_cast<VertexId>(v),
                               static_cast<storage::AttributeId>(
                                   rng->UniformInt(0, 1))});
    }
  }
  return t;
}

// BFS order of the tree from `root`: (vertex, parent, fk, is_from).
std::vector<LabeledTree::Edge> RootedOrder(const LabeledTree& t,
                                           VertexId root) {
  std::vector<std::vector<LabeledTree::Edge>> adj(t.vertices.size());
  for (const LabeledTree::Edge& e : t.edges) {
    adj[static_cast<size_t>(e.a)].push_back(e);
    adj[static_cast<size_t>(e.b)].push_back({e.b, e.a, e.fk, !e.b_is_from});
  }
  std::vector<LabeledTree::Edge> order{{kNoVertex, root, -1, false}};
  std::vector<bool> seen(t.vertices.size(), false);
  seen[static_cast<size_t>(root)] = true;
  for (size_t i = 0; i < order.size(); ++i) {
    for (const LabeledTree::Edge& e : adj[static_cast<size_t>(order[i].b)]) {
      if (seen[static_cast<size_t>(e.b)]) continue;
      seen[static_cast<size_t>(e.b)] = true;
      order.push_back(e);
    }
  }
  return order;
}

template <typename Path, typename Single, typename Add>
Path BuildRooted(const LabeledTree& t, VertexId root, Single single,
                 Add add) {
  const std::vector<LabeledTree::Edge> order = RootedOrder(t, root);
  std::vector<VertexId> new_id(t.vertices.size(), kNoVertex);
  Path path = single(t.vertices[static_cast<size_t>(root)]);
  new_id[static_cast<size_t>(root)] = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    const LabeledTree::Edge& e = order[i];
    new_id[static_cast<size_t>(e.b)] =
        add(path, t.vertices[static_cast<size_t>(e.b)],
            new_id[static_cast<size_t>(e.a)], e.fk, e.b_is_from);
  }
  for (const Projection& p : t.projections) {
    if constexpr (std::is_same_v<Path, TuplePath>) {
      path.AddProjection(p.target_column, new_id[static_cast<size_t>(p.vertex)],
                         p.attribute, 1.0);
    } else {
      path.AddProjection(p.target_column, new_id[static_cast<size_t>(p.vertex)],
                         p.attribute);
    }
  }
  return path;
}

MappingPath ToMappingPath(const LabeledTree& t, VertexId root) {
  return BuildRooted<MappingPath>(
      t, root,
      [](const LabeledTree::Vertex& v) {
        return MappingPath::SingleVertex(v.relation);
      },
      [](MappingPath& p, const LabeledTree::Vertex& v, VertexId parent,
         storage::ForeignKeyId fk, bool is_from) {
        return p.AddVertex(v.relation, parent, fk, is_from);
      });
}

TuplePath ToTuplePath(const LabeledTree& t, VertexId root) {
  return BuildRooted<TuplePath>(
      t, root,
      [](const LabeledTree::Vertex& v) {
        return TuplePath::SingleVertex(v.relation, v.row);
      },
      [](TuplePath& p, const LabeledTree::Vertex& v, VertexId parent,
         storage::ForeignKeyId fk, bool is_from) {
        return p.AddVertex(v.relation, v.row, parent, fk, is_from);
      });
}

// One perturbation of a single label: a row id, an edge's fk, an edge's
// orientation (both sides of one relation, as on a self-FK), or a
// projection's attribute or vertex.
LabeledTree Perturb(const LabeledTree& t, Rng* rng) {
  LabeledTree out = t;
  const int kind = static_cast<int>(rng->UniformInt(0, 4));
  if (kind == 0) {
    out.vertices[rng->Index(out.vertices.size())].row ^= 1;
  } else if (kind <= 2 && !out.edges.empty()) {
    LabeledTree::Edge& e = out.edges[rng->Index(out.edges.size())];
    if (kind == 1) {
      e.fk ^= 1;
    } else {
      out.vertices[static_cast<size_t>(e.b)].relation =
          out.vertices[static_cast<size_t>(e.a)].relation;
      e.b_is_from = !e.b_is_from;
    }
  } else {
    Projection& p = out.projections[rng->Index(out.projections.size())];
    if (kind == 3) {
      p.attribute ^= 1;
    } else {
      p.vertex = static_cast<VertexId>(rng->Index(out.vertices.size()));
    }
  }
  return out;
}

template <typename Path>
std::vector<KeyToken> KeyOf(const Path& path) {
  std::vector<KeyToken> key;
  AppendCanonicalKey(path, &key);
  return key;
}

// Asserts key equality <=> Canonical() equality over every pair of `paths`;
// returns how many unequal pairs were isomorphic (equal strings).
template <typename Path>
size_t CheckKeysMatchStrings(const std::vector<Path>& paths) {
  std::vector<std::string> strings;
  std::vector<std::vector<KeyToken>> keys;
  for (const Path& p : paths) {
    strings.push_back(p.Canonical());
    keys.push_back(KeyOf(p));
  }
  size_t equal_pairs = 0;
  for (size_t i = 0; i < paths.size(); ++i) {
    for (size_t j = i + 1; j < paths.size(); ++j) {
      const bool same_string = strings[i] == strings[j];
      EXPECT_EQ(keys[i] == keys[j], same_string)
          << strings[i] << " vs " << strings[j];
      // operator== rebuilds both keys; nearby pairs (same tree, its
      // rerootings and perturbations) are enough for it.
      if (j - i <= 8) {
        EXPECT_EQ(paths[i] == paths[j], same_string);
      }
      if (same_string) ++equal_pairs;
    }
  }
  return equal_pairs;
}

}  // namespace

TEST(CanonicalKeyTest, EqualExactlyWhenCanonicalStringsEqual) {
  Rng rng(4512);
  std::vector<MappingPath> mappings;
  std::vector<TuplePath> tuples;
  for (int round = 0; round < 120; ++round) {
    // Sizes 1..7 cover 1- and 2-vertex trees; chains of even length and
    // random trees of odd diameter are bicentral.
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 7));
    const LabeledTree tree = MakeLabeledTree(&rng, n, round % 3 == 0);
    std::vector<LabeledTree> variants{tree};
    for (int k = 0; k < 3; ++k) variants.push_back(Perturb(tree, &rng));
    for (const LabeledTree& t : variants) {
      for (size_t root = 0; root < t.vertices.size(); ++root) {
        mappings.push_back(ToMappingPath(t, static_cast<VertexId>(root)));
        tuples.push_back(ToTuplePath(t, static_cast<VertexId>(root)));
      }
    }
  }
  // Rerootings alone give many equal pairs; the small alphabets also make
  // independently drawn trees isomorphic.
  EXPECT_GT(CheckKeysMatchStrings(mappings), mappings.size());
  EXPECT_GT(CheckKeysMatchStrings(tuples), tuples.size());
}

TEST(CanonicalKeyTest, MappingKeyOfTuplePathMatchesExtractedMapping) {
  Rng rng(99);
  for (int round = 0; round < 100; ++round) {
    const LabeledTree tree = MakeLabeledTree(
        &rng, static_cast<size_t>(rng.UniformInt(1, 7)), round % 2 == 0);
    const TuplePath tp = ToTuplePath(
        tree, static_cast<VertexId>(rng.Index(tree.vertices.size())));
    std::vector<KeyToken> from_tuple;
    AppendMappingKey(tp, &from_tuple);
    EXPECT_EQ(from_tuple, KeyOf(tp.ExtractMappingPath()));
  }
}

TEST(CanonicalKeyTest, KeySetDedupsByFullSequence) {
  CanonicalKeySet set;
  const std::vector<KeyToken> a{1, 2, 3};
  const std::vector<KeyToken> b{1, 2, 3, 0};
  EXPECT_TRUE(set.Insert(a).inserted);
  EXPECT_TRUE(set.Insert(b).inserted);
  EXPECT_TRUE(set.Insert({}).inserted);
  const CanonicalKeySet::InsertResult again = set.Insert(a);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, 0u);
  // Growth rehashes; ids stay dense and stable.
  for (KeyToken i = 0; i < 1000; ++i) {
    EXPECT_EQ(set.Insert(std::vector<KeyToken>{i, -i}).id,
              static_cast<uint32_t>(3 + i));
  }
  EXPECT_EQ(set.Insert(b).id, 1u);
  EXPECT_EQ(set.size(), 1003u);
}

}  // namespace
}  // namespace mweaver::core
