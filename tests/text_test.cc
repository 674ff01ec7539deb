#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "common/random.h"
#include "common/string_util.h"
#include "test_util.h"
#include "text/autocomplete.h"
#include "text/fulltext_engine.h"
#include "text/numeric.h"
#include "text/inverted_index.h"
#include "text/match.h"
#include "text/tokenizer.h"

namespace mweaver::text {
namespace {

using ::mweaver::testing::MakeFigure2Db;
using ::mweaver::testing::MakeRandomTextRelation;
using ::mweaver::testing::S;
using ::mweaver::testing::StrAttr;

// ------------------------------------------------------------- Tokenizer --

TEST(TokenizerTest, BasicSplitting) {
  EXPECT_EQ(Tokenize("Ed Wood!"), (std::vector<std::string>{"ed", "wood"}));
  EXPECT_EQ(Tokenize("  multiple   spaces "),
            (std::vector<std::string>{"multiple", "spaces"}));
  EXPECT_EQ(Tokenize("a-b_c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(Tokenize("!!!").empty());
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(TokenizerTest, KeepsDigits) {
  EXPECT_EQ(Tokenize("2009-12-10"),
            (std::vector<std::string>{"2009", "12", "10"}));
}

TEST(TokenizerTest, MinLengthFilters) {
  EXPECT_EQ(Tokenize("a bb ccc", 2), (std::vector<std::string>{"bb", "ccc"}));
}

// ----------------------------------------------------------------- Match --

TEST(MatchTest, ExactMode) {
  const MatchPolicy p = MatchPolicy::Exact();
  EXPECT_TRUE(NoisyContains("Avatar", "Avatar", p));
  EXPECT_FALSE(NoisyContains("avatar", "Avatar", p));
  EXPECT_FALSE(NoisyContains("Avatar 2", "Avatar", p));
}

TEST(MatchTest, SubstringMode) {
  const MatchPolicy p = MatchPolicy::Substring();
  EXPECT_TRUE(NoisyContains("the Ed Wood story", "Ed Wood", p));
  EXPECT_TRUE(NoisyContains("Ed Wood", "ed wood", p));
  EXPECT_FALSE(NoisyContains("Ed Woods-free zone", "Ed WoodX", p));
  EXPECT_FALSE(NoisyContains("short", "not contained", p));
}

TEST(MatchTest, EmptySampleNeverMatches) {
  for (MatchPolicy p : {MatchPolicy::Exact(), MatchPolicy::Substring(),
                        MatchPolicy::TokenSubset(), MatchPolicy::Fuzzy()}) {
    EXPECT_FALSE(NoisyContains("anything", "", p));
    EXPECT_EQ(MatchScore("anything", "", p), 0.0);
  }
}

TEST(MatchTest, TokenSubsetMode) {
  const MatchPolicy p = MatchPolicy::TokenSubset();
  EXPECT_TRUE(NoisyContains("The Crimson Harbor", "harbor crimson", p));
  EXPECT_TRUE(NoisyContains("The Crimson Harbor", "THE", p));
  EXPECT_FALSE(NoisyContains("The Crimson Harbor", "harbors", p));
}

TEST(MatchTest, FuzzyModeForgivesTypos) {
  const MatchPolicy p = MatchPolicy::Fuzzy(1);
  EXPECT_TRUE(NoisyContains("James Cameron", "james cameron", p));
  EXPECT_TRUE(NoisyContains("James Cameron", "james cameran", p));  // typo
  EXPECT_FALSE(NoisyContains("James Cameron", "james cmrn", p));
}

TEST(MatchTest, IgnoreCaseMode) {
  const MatchPolicy p = MatchPolicy::IgnoreCase();
  EXPECT_TRUE(NoisyContains("Avatar", "aVaTaR", p));
  EXPECT_FALSE(NoisyContains("Avatar 2", "Avatar", p));
  EXPECT_DOUBLE_EQ(MatchScore("Avatar", "AVATAR", p), 1.0);
}

// Parameterized property sweep: for every policy, every value noisily
// contains itself, containment is invariant under sample case folding, and
// scores stay in [0,1] consistent with containment.
class MatchPropertyTest
    : public ::testing::TestWithParam<MatchPolicy> {};

TEST_P(MatchPropertyTest, ReflexivityAndCaseStability) {
  const MatchPolicy& policy = GetParam();
  const char* values[] = {"Avatar",       "James Cameron",
                          "The Crimson Harbor",
                          "a long logline with Avatar inside",
                          "2009-12-10",   "x"};
  for (const char* v : values) {
    EXPECT_TRUE(NoisyContains(v, v, policy)) << v;
    EXPECT_GT(MatchScore(v, v, policy), 0.0) << v;
    // Case-folding the sample flips nothing except under kExact.
    if (policy.mode != MatchMode::kExact) {
      EXPECT_EQ(NoisyContains(v, v, policy),
                NoisyContains(v, ToLower(v), policy))
          << v;
    }
  }
}

TEST_P(MatchPropertyTest, ScoreBoundsRandomized) {
  const MatchPolicy& policy = GetParam();
  Rng rng(static_cast<uint64_t>(policy.mode) * 131 + 7);
  const char* words[] = {"avatar", "cameron", "harbor", "2009", "x", ""};
  for (int round = 0; round < 300; ++round) {
    std::string value, sample;
    for (int w = 0; w < 3; ++w) {
      value += words[rng.Index(6)];
      value += rng.Bernoulli(0.5) ? " " : "";
    }
    for (int w = 0; w < 2; ++w) {
      sample += words[rng.Index(6)];
      sample += rng.Bernoulli(0.3) ? " " : "";
    }
    const double score = MatchScore(value, sample, policy);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
    EXPECT_EQ(score > 0.0, NoisyContains(value, sample, policy))
        << "value='" << value << "' sample='" << sample << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, MatchPropertyTest,
    ::testing::Values(MatchPolicy::Exact(), MatchPolicy::IgnoreCase(),
                      MatchPolicy::Substring(), MatchPolicy::TokenSubset(),
                      MatchPolicy::Fuzzy(1), MatchPolicy::Fuzzy(2)),
    [](const ::testing::TestParamInfo<MatchPolicy>& info) {
      return "mode" + std::to_string(static_cast<int>(info.param.mode)) +
             "_d" + std::to_string(info.param.max_edit_distance);
    });

// Property: stricter modes imply looser ones (on token-aligned samples).
TEST(MatchTest, ModeImplicationHierarchy) {
  const char* values[] = {"James Cameron", "The Crimson Harbor",
                          "story of the Crimson Harbor", "PG-13"};
  const char* samples[] = {"James Cameron", "Crimson", "crimson harbor",
                           "PG-13", "nothing here"};
  for (const char* v : values) {
    for (const char* s : samples) {
      if (NoisyContains(v, s, MatchPolicy::Exact())) {
        EXPECT_TRUE(NoisyContains(v, s, MatchPolicy::Substring()))
            << v << " / " << s;
      }
      if (NoisyContains(v, s, MatchPolicy::Substring())) {
        EXPECT_TRUE(NoisyContains(v, s, MatchPolicy::TokenSubset()))
            << v << " / " << s;
      }
      if (NoisyContains(v, s, MatchPolicy::TokenSubset())) {
        EXPECT_TRUE(NoisyContains(v, s, MatchPolicy::Fuzzy(1)))
            << v << " / " << s;
      }
    }
  }
}

// Property: scores are in [0,1] and positive iff contained.
TEST(MatchTest, ScoreConsistentWithContains) {
  const char* values[] = {"James Cameron", "a long logline about the Harbor",
                          ""};
  const char* samples[] = {"James Cameron", "Harbor", "zzz", "a"};
  for (MatchPolicy p : {MatchPolicy::Exact(), MatchPolicy::Substring(),
                        MatchPolicy::TokenSubset(), MatchPolicy::Fuzzy()}) {
    for (const char* v : values) {
      for (const char* s : samples) {
        const double score = MatchScore(v, s, p);
        EXPECT_GE(score, 0.0);
        EXPECT_LE(score, 1.0);
        EXPECT_EQ(score > 0.0, NoisyContains(v, s, p)) << v << "/" << s;
      }
    }
  }
}

TEST(MatchTest, ExactMatchScoresHigherThanBuried) {
  const MatchPolicy p = MatchPolicy::Substring();
  const double exact = MatchScore("Avatar", "Avatar", p);
  const double buried = MatchScore("a story about Avatar and more", "Avatar",
                                   p);
  EXPECT_GT(exact, buried);
  EXPECT_DOUBLE_EQ(exact, 1.0);
}

// --------------------------------------------------------- InvertedIndex --

storage::Relation MakeTitleRelation() {
  storage::Relation rel(
      storage::RelationSchema("movie", {StrAttr("title")}));
  rel.AppendUnchecked({S("Avatar")});
  rel.AppendUnchecked({S("The Ed Wood Story")});
  rel.AppendUnchecked({S("Ed Wood")});
  rel.AppendUnchecked({S("Harbor Nights")});
  rel.AppendUnchecked({storage::Value::Null()});
  rel.AppendUnchecked({S("...")});  // tokenizes to nothing
  return rel;
}

TEST(InvertedIndexTest, CandidatesAreSupersetOfMatches) {
  const storage::Relation rel = MakeTitleRelation();
  const InvertedIndex index(rel, 0);
  const char* samples[] = {"Ed Wood",  "wood",  "Avatar", "d Woo",
                           "harbor",   "zzz",   "...",    "Ed"};
  for (MatchPolicy p : {MatchPolicy::Exact(), MatchPolicy::Substring(),
                        MatchPolicy::TokenSubset(), MatchPolicy::Fuzzy(1)}) {
    for (const char* sample : samples) {
      const std::vector<storage::RowId> candidates =
          index.CandidateRows(sample, p);
      for (size_t r = 0; r < rel.num_rows(); ++r) {
        const storage::Value& v = rel.at(static_cast<storage::RowId>(r), 0);
        if (v.is_null()) continue;
        if (NoisyContains(v.ToDisplayString(), sample, p)) {
          EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                         static_cast<storage::RowId>(r)))
              << "sample '" << sample << "' should reach row " << r
              << " under mode " << static_cast<int>(p.mode);
        }
      }
    }
  }
}

TEST(InvertedIndexTest, SubstringMidTokenSampleIsFound) {
  // "d Woo" is a substring of "Ed Wood" that crosses a token boundary with
  // partial tokens on both sides — the classic hard case for token indexes.
  const storage::Relation rel = MakeTitleRelation();
  const InvertedIndex index(rel, 0);
  const auto candidates =
      index.CandidateRows("d Woo", MatchPolicy::Substring());
  EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                 storage::RowId{2}));
}

TEST(InvertedIndexTest, CountsTokensAndRows) {
  const storage::Relation rel = MakeTitleRelation();
  const InvertedIndex index(rel, 0);
  EXPECT_EQ(index.num_indexed_rows(), 5u);  // null row skipped
  EXPECT_GT(index.num_tokens(), 4u);
  EXPECT_GT(index.index_bytes(), 0u);
}

// Random-relation builder shared with property_test (tests/test_util.h).
storage::Relation MakeRandomRelation(uint64_t seed, size_t num_rows) {
  return MakeRandomTextRelation(seed, num_rows);
}

// The tentpole contract: for every match mode and edit bound, the
// accelerated candidate path returns exactly the linear-scan reference's
// rows, and both are supersets of the true noisy-containment matches.
TEST(InvertedIndexTest, AcceleratedEqualsScanReferenceAllModes) {
  const storage::Relation rel = MakeRandomRelation(42, 300);
  const InvertedIndex index(rel, 0);
  const MatchPolicy policies[] = {
      MatchPolicy::Exact(),       MatchPolicy::IgnoreCase(),
      MatchPolicy::Substring(),   MatchPolicy::TokenSubset(),
      MatchPolicy::Fuzzy(0),      MatchPolicy::Fuzzy(1),
      MatchPolicy::Fuzzy(2),      MatchPolicy::Fuzzy(3),  // beyond kMaxEdit
  };
  const char* samples[] = {
      "avatar",        "avatar harbor", "aqatar",  "cameron story",
      "rbor",          "d woo",         "...",     "!?",
      "zzz",           "x",             "av",      "aardvark night",
      "crimson-potter", "wod",          "2009",    "weaver mapping sample",
  };
  for (const MatchPolicy& policy : policies) {
    for (const char* sample : samples) {
      SCOPED_TRACE(StrFormat("mode=%d d=%zu sample='%s'",
                             static_cast<int>(policy.mode),
                             policy.max_edit_distance, sample));
      ProbeStats stats;
      const std::vector<storage::RowId> fast =
          index.CandidateRows(sample, policy, &stats);
      const std::vector<storage::RowId> reference =
          index.ScanCandidateRows(sample, policy);
      EXPECT_EQ(fast, reference);
      // Sorted and duplicate-free.
      EXPECT_TRUE(std::is_sorted(fast.begin(), fast.end()));
      EXPECT_TRUE(std::adjacent_find(fast.begin(), fast.end()) == fast.end());
      // Superset of the true matches.
      for (size_t r = 0; r < rel.num_rows(); ++r) {
        const storage::Value& v = rel.at(static_cast<storage::RowId>(r), 0);
        if (v.is_null()) continue;
        if (NoisyContains(v.ToDisplayString(), sample, policy)) {
          EXPECT_TRUE(std::binary_search(fast.begin(), fast.end(),
                                         static_cast<storage::RowId>(r)))
              << "missing matching row " << r << " ('"
              << v.ToDisplayString() << "')";
        }
      }
    }
  }
}

TEST(InvertedIndexTest, RandomizedEquivalenceSweep) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const storage::Relation rel = MakeRandomRelation(seed, 150);
    const InvertedIndex index(rel, 0);
    Rng rng(seed * 977 + 5);
    for (int round = 0; round < 60; ++round) {
      // Sample a (possibly typo'd) fragment of a real value, so probes hit.
      std::string sample;
      const storage::RowId row =
          static_cast<storage::RowId>(rng.Index(rel.num_rows()));
      const storage::Value& v = rel.at(row, 0);
      if (!v.is_null() && !v.ToDisplayString().empty() &&
          rng.Bernoulli(0.8)) {
        const std::string text = v.ToDisplayString();
        const size_t start = rng.Index(text.size());
        const size_t len = 1 + rng.Index(text.size() - start);
        sample = text.substr(start, len);
      } else {
        sample = rng.Bernoulli(0.5) ? "zzz" : "..";
      }
      const MatchPolicy policy =
          rng.Bernoulli(0.5)
              ? MatchPolicy::Substring()
              : MatchPolicy::Fuzzy(rng.Index(3));
      SCOPED_TRACE(StrFormat("seed=%llu mode=%d d=%zu sample='%s'",
                             static_cast<unsigned long long>(seed),
                             static_cast<int>(policy.mode),
                             policy.max_edit_distance, sample.c_str()));
      EXPECT_EQ(index.CandidateRows(sample, policy),
                index.ScanCandidateRows(sample, policy));
    }
  }
}

TEST(InvertedIndexTest, ProbeStatsCounters) {
  const storage::Relation rel = MakeTitleRelation();
  const InvertedIndex index(rel, 0);

  ProbeStats stats;
  index.CandidateRows("wood", MatchPolicy::Substring(), &stats);
  EXPECT_GT(stats.candidates_examined, 0u);
  EXPECT_EQ(stats.scan_fallbacks, 0u);
  EXPECT_EQ(stats.all_rows_fallbacks, 0u);

  // Punctuation-only sample: all-rows fallback, flagged for the memo guard.
  stats = {};
  const auto all = index.CandidateRows("...", MatchPolicy::Substring(), &stats);
  EXPECT_EQ(stats.all_rows_fallbacks, 1u);
  EXPECT_EQ(all.size(), index.num_indexed_rows());

  // Edit bound beyond the deletion index: counted dictionary-scan fallback.
  stats = {};
  index.CandidateRows("wod", MatchPolicy::Fuzzy(3), &stats);
  EXPECT_EQ(stats.scan_fallbacks, 1u);
}

TEST(ProbeCountersTest, SparseRecordsSumFieldWise) {
  std::vector<ProbeStats> records(4);
  records[0].probes = 1;
  records[0].memo_hits = 1;
  records[1].probes = 1;
  records[1].memo_misses = 1;
  records[1].candidates_examined = 12;
  records[1].kernel_array_bitmap = 3;
  records[2].scan_fallbacks = 2;
  records[2].kernel_scalar_fallback = 5;
  records[3].all_rows_fallbacks = 1;
  records[3].kernel_array_array = 4;
  records[3].kernel_bitmap_bitmap = 6;
  ProbeCounters counters;
  ProbeStats want;
  for (const ProbeStats& r : records) {
    counters.Record(r);
    want.Add(r);
  }
  const ProbeStats got = counters.Snapshot();
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.memo_hits, want.memo_hits);
  EXPECT_EQ(got.memo_misses, want.memo_misses);
  EXPECT_EQ(got.candidates_examined, want.candidates_examined);
  EXPECT_EQ(got.scan_fallbacks, want.scan_fallbacks);
  EXPECT_EQ(got.all_rows_fallbacks, want.all_rows_fallbacks);
  EXPECT_EQ(got.kernel_array_array, want.kernel_array_array);
  EXPECT_EQ(got.kernel_array_bitmap, want.kernel_array_bitmap);
  EXPECT_EQ(got.kernel_bitmap_bitmap, want.kernel_bitmap_bitmap);
  EXPECT_EQ(got.kernel_scalar_fallback, want.kernel_scalar_fallback);
  EXPECT_EQ(got.probes, 2u);
  EXPECT_EQ(got.kernel_bitmap_bitmap, 6u);
}

// ------------------------------------------------------------ ProbeCache --

RowSet MakeRows(std::vector<storage::RowId> rows) {
  return std::make_shared<const std::vector<storage::RowId>>(std::move(rows));
}

TEST(ProbeCacheTest, LookupRoundTripAndMiss) {
  ProbeCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup(0, 0, 1, 0, "harry"), nullptr);
  cache.Insert(0, 0, 1, 0, "harry", MakeRows({1, 2}));
  const RowSet hit = cache.Lookup(0, 0, 1, 0, "harry");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (std::vector<storage::RowId>{1, 2}));
  // Any key component change misses.
  EXPECT_EQ(cache.Lookup(1, 0, 1, 0, "harry"), nullptr);
  EXPECT_EQ(cache.Lookup(0, 1, 1, 0, "harry"), nullptr);
  EXPECT_EQ(cache.Lookup(0, 0, 2, 0, "harry"), nullptr);
  EXPECT_EQ(cache.Lookup(0, 0, 1, 0, "harr"), nullptr);
}

TEST(ProbeCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Each entry costs 2 (key) + 80 (10 rows) + 96 (overhead) = 178 bytes;
  // the budget fits four of them (712 <= 760) and 178 <= 760/4, so a fifth
  // insert must evict the least recently used.
  ProbeCache cache(760);
  cache.Insert(0, 0, 1, 0, "aa", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  cache.Insert(0, 0, 1, 0, "bb", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  cache.Insert(0, 0, 1, 0, "cc", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  cache.Insert(0, 0, 1, 0, "dd", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  ASSERT_EQ(cache.stats().entries, 4u);
  // Touch "aa" so "bb" becomes the LRU victim.
  EXPECT_NE(cache.Lookup(0, 0, 1, 0, "aa"), nullptr);
  cache.Insert(0, 0, 1, 0, "ee", MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(cache.Lookup(0, 0, 1, 0, "bb"), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(0, 0, 1, 0, "aa"), nullptr);  // survived (recent)
  EXPECT_NE(cache.Lookup(0, 0, 1, 0, "ee"), nullptr);
  const ProbeCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_used, 760u);
}

TEST(ProbeCacheTest, EntryHitBetweenInsertsSurvivesChurn) {
  // Room for four 178-byte entries (see above). A hit leaves an entry in
  // the front quarter where it is, but refreshes it before it can age out.
  ProbeCache cache(760);
  const RowSet rows = MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  cache.Insert(0, 0, 1, 0, "hh", rows);
  for (int i = 0; i < 40; ++i) {
    cache.Insert(0, 0, 1, 0, std::to_string(10 + i), rows);
    ASSERT_NE(cache.Lookup(0, 0, 1, 0, "hh"), nullptr) << i;
  }
  EXPECT_GE(cache.stats().evictions, 30u);
}

TEST(ProbeCacheTest, HandleSurvivesEviction) {
  ProbeCache cache(760);
  cache.Insert(0, 0, 1, 0, "aa", MakeRows({7, 8}));
  const RowSet handle = cache.Lookup(0, 0, 1, 0, "aa");
  ASSERT_NE(handle, nullptr);
  for (int i = 0; i < 50; ++i) {  // flush "aa" out of the cache
    cache.Insert(0, 0, 1, 0, "key" + std::to_string(i),
                 MakeRows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  }
  EXPECT_EQ(cache.Lookup(0, 0, 1, 0, "aa"), nullptr);
  EXPECT_EQ(*handle, (std::vector<storage::RowId>{7, 8}));  // still valid
}

TEST(ProbeCacheTest, RejectsOversizedEntries) {
  ProbeCache cache(1024);
  // 512 rows * 8 bytes is far beyond budget/4.
  cache.Insert(0, 0, 1, 0, "big",
               MakeRows(std::vector<storage::RowId>(512, 1)));
  EXPECT_EQ(cache.Lookup(0, 0, 1, 0, "big"), nullptr);
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ProbeCacheTest, LongSampleHitsThroughBorrowedView) {
  // Longer than any small-string buffer, so an owning key would allocate.
  const std::string sample = "the lord of the rings: the two towers";
  ProbeCache cache(1 << 20);
  cache.Insert(2, 3, 1, 7, sample, MakeRows({4, 9}));
  // Probe with a view into a larger buffer: no terminator, no copy.
  const std::string buffer = "<<" + sample + ">>";
  const std::string_view view(buffer.data() + 2, sample.size());
  const RowSet hit = cache.Lookup(2, 3, 1, 7, view);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (std::vector<storage::RowId>{4, 9}));
  EXPECT_EQ(cache.Lookup(2, 3, 1, 7, view.substr(0, view.size() - 1)),
            nullptr);
  EXPECT_EQ(cache.Lookup(2, 3, 1, 8, view), nullptr);  // newer version
}

TEST(ProbeCacheTest, ZeroBudgetDisablesCaching) {
  ProbeCache cache(0);
  cache.Insert(0, 0, 1, 0, "aa", MakeRows({1}));
  EXPECT_EQ(cache.Lookup(0, 0, 1, 0, "aa"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// -------------------------------------------------------- FullTextEngine --

TEST(FullTextEngineTest, FindOccurrencesLikePaperExample) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());

  const auto occurrences = engine.FindOccurrences("James Cameron");
  ASSERT_EQ(occurrences.size(), 1u);
  EXPECT_EQ(engine.AttributeName(occurrences[0].attr), "person.name");
  EXPECT_EQ(*occurrences[0].rows, (std::vector<storage::RowId>{0}));

  EXPECT_TRUE(engine.FindOccurrences("nonexistent xyz").empty());
}

TEST(FullTextEngineTest, MatchingRowsCachedAndVerified) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  const AttributeRef title{db.FindRelation("movie"), 1};
  const RowSet rows1 = engine.MatchingRows(title, "Harry");
  const RowSet rows2 = engine.MatchingRows(title, "Harry");
  EXPECT_EQ(rows1.get(), rows2.get());  // memoized: same shared row set
  EXPECT_EQ(*rows1, (std::vector<storage::RowId>{1}));
  const ProbeStats totals = engine.probe_totals();
  EXPECT_EQ(totals.probes, 2u);
  EXPECT_EQ(totals.memo_hits, 1u);
  EXPECT_EQ(totals.memo_misses, 1u);
}

TEST(FullTextEngineTest, NonIndexedAttributeYieldsNothing) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  // movie.mid is an int64 key: not indexed.
  const AttributeRef mid{db.FindRelation("movie"), 0};
  EXPECT_TRUE(engine.MatchingRows(mid, "0")->empty());
  EXPECT_EQ(engine.num_indexed_attributes(), 2u);  // movie.title, person.name
}

TEST(FullTextEngineTest, PunctuationOnlySampleNeverMemoized) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  const AttributeRef title{db.FindRelation("movie"), 1};
  // A punctuation-only sample degrades to the all-rows candidate fallback;
  // its result must never enter the probe memo (satellite guard: degenerate
  // probes must not flush the working set).
  EXPECT_TRUE(engine.MatchingRows(title, "...")->empty());
  EXPECT_TRUE(engine.MatchingRows(title, "...")->empty());
  const ProbeStats totals = engine.probe_totals();
  EXPECT_EQ(totals.probes, 2u);
  EXPECT_EQ(totals.memo_hits, 0u);  // second probe recomputed, not cached
  EXPECT_EQ(totals.memo_misses, 2u);
  EXPECT_EQ(totals.all_rows_fallbacks, 2u);
  EXPECT_EQ(engine.probe_cache_stats().entries, 0u);
}

TEST(FullTextEngineTest, CountersFlowToCallerAccumulator) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  const AttributeRef title{db.FindRelation("movie"), 1};
  ProbeCounters counters;
  engine.MatchingRows(title, "Harry", &counters);
  engine.MatchingRows(title, "Harry", &counters);
  const ProbeStats stats = counters.Snapshot();
  EXPECT_EQ(stats.probes, 2u);
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_GT(stats.candidates_examined, 0u);
}

TEST(FullTextEngineTest, DisabledCacheStillCorrect) {
  storage::Database db = MakeFigure2Db();
  EngineOptions options;
  options.probe_cache_bytes = 0;
  const FullTextEngine engine(&db, MatchPolicy::Substring(), options);
  const AttributeRef title{db.FindRelation("movie"), 1};
  EXPECT_EQ(*engine.MatchingRows(title, "Harry"),
            (std::vector<storage::RowId>{1}));
  EXPECT_EQ(*engine.MatchingRows(title, "Harry"),
            (std::vector<storage::RowId>{1}));
  EXPECT_EQ(engine.probe_totals().memo_hits, 0u);
}

TEST(FullTextEngineTest, ReportsIndexBytes) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  EXPECT_GT(engine.index_bytes(), 0u);
}

TEST(FullTextEngineTest, RowContainsAndScore) {
  storage::Database db = MakeFigure2Db();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  const AttributeRef title{db.FindRelation("movie"), 1};
  EXPECT_TRUE(engine.RowContains(title, 0, "Avatar"));
  EXPECT_FALSE(engine.RowContains(title, 1, "Avatar"));
  EXPECT_DOUBLE_EQ(engine.RowMatchScore(title, 0, "Avatar"), 1.0);
  EXPECT_EQ(engine.RowMatchScore(title, 1, "Avatar"), 0.0);
}

// ----------------------------------------------------------- Numeric ⊙ --

TEST(NumericTest, ParseNumeric) {
  EXPECT_EQ(ParseNumeric("42"), 42.0);
  EXPECT_EQ(ParseNumeric("-3.5"), -3.5);
  EXPECT_EQ(ParseNumeric("1e3"), 1000.0);
  EXPECT_FALSE(ParseNumeric("").has_value());
  EXPECT_FALSE(ParseNumeric("42a").has_value());
  EXPECT_FALSE(ParseNumeric("Avatar").has_value());
  EXPECT_FALSE(ParseNumeric("inf").has_value());
}

TEST(NumericTest, NumericEquals) {
  using storage::Value;
  EXPECT_TRUE(NumericEquals(Value(int64_t{42}), 42.0));
  EXPECT_FALSE(NumericEquals(Value(int64_t{42}), 42.5));
  EXPECT_TRUE(NumericEquals(Value(2.5), 2.5));
  EXPECT_TRUE(NumericEquals(Value(1.0 / 3.0), 1.0 / 3.0));
  EXPECT_FALSE(NumericEquals(Value(2.5), 2.6));
  EXPECT_FALSE(NumericEquals(Value("42"), 42.0));  // strings never match
  EXPECT_FALSE(NumericEquals(Value::Null(), 0.0));
}

namespace {

// A payroll database with *searchable* numeric columns.
storage::Database MakePayrollDb() {
  using storage::AttributeSchema;
  using storage::Database;
  using storage::RelationSchema;
  using storage::ValueType;
  using ::mweaver::testing::AddRow;
  using ::mweaver::testing::I;
  using ::mweaver::testing::IdAttr;
  using ::mweaver::testing::S;
  using ::mweaver::testing::StrAttr;

  Database db("payroll");
  db.AddRelation(RelationSchema(
                     "employee",
                     {IdAttr("eid"), StrAttr("name"),
                      AttributeSchema{"salary", ValueType::kDouble, true},
                      AttributeSchema{"level", ValueType::kInt64, true}}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("dept", {IdAttr("did"), StrAttr("dname")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("worksin", {IdAttr("eid"), IdAttr("did")}))
      .ValueOrDie();
  db.AddForeignKey("worksin", "eid", "employee", "eid").ValueOrDie();
  db.AddForeignKey("worksin", "did", "dept", "did").ValueOrDie();
  AddRow(&db, "employee",
         {I(0), S("Ada"), storage::Value(95000.0), I(7)});
  AddRow(&db, "employee",
         {I(1), S("Grace"), storage::Value(120000.5), I(9)});
  AddRow(&db, "dept", {I(0), S("Compilers")});
  AddRow(&db, "dept", {I(1), S("Systems")});
  AddRow(&db, "worksin", {I(0), I(0)});
  AddRow(&db, "worksin", {I(1), I(1)});
  return db;
}

}  // namespace

TEST(NumericTest, EngineMatchesNumericSamplesWhenEnabled) {
  storage::Database db = MakePayrollDb();
  const FullTextEngine engine(&db,
                              MatchPolicy::Substring().WithNumeric());
  EXPECT_EQ(engine.num_numeric_attributes(), 2u);

  const auto occurrences = engine.FindOccurrences("95000");
  ASSERT_EQ(occurrences.size(), 1u);
  EXPECT_EQ(engine.AttributeName(occurrences[0].attr), "employee.salary");
  EXPECT_EQ(*occurrences[0].rows, (std::vector<storage::RowId>{0}));

  // Integer-typed column.
  const auto levels = engine.FindOccurrences("9");
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(engine.AttributeName(levels[0].attr), "employee.level");

  // Non-numeric samples never touch numeric columns.
  EXPECT_EQ(engine.FindOccurrences("Ada").size(), 1u);
}

TEST(NumericTest, NumericMatchingDisabledByDefault) {
  storage::Database db = MakePayrollDb();
  const FullTextEngine engine(&db, MatchPolicy::Substring());
  EXPECT_TRUE(engine.FindOccurrences("95000").empty());
}

TEST(NumericTest, RowContainsAndScoreOnNumericAttr) {
  storage::Database db = MakePayrollDb();
  const FullTextEngine engine(&db,
                              MatchPolicy::Substring().WithNumeric());
  const AttributeRef salary{db.FindRelation("employee"), 2};
  EXPECT_TRUE(engine.RowContains(salary, 0, "95000"));
  EXPECT_FALSE(engine.RowContains(salary, 1, "95000"));
  EXPECT_DOUBLE_EQ(engine.RowMatchScore(salary, 0, "95000"), 1.0);
  EXPECT_EQ(engine.RowMatchScore(salary, 0, "95001"), 0.0);
}

// ------------------------------------------------------- ValueDictionary --

TEST(ValueDictionaryTest, SuggestsByCaseInsensitivePrefix) {
  storage::Database db = MakeFigure2Db();
  const ValueDictionary dict(&db);
  EXPECT_EQ(dict.Suggest("ja"), (std::vector<std::string>{"James Cameron"}));
  EXPECT_EQ(dict.Suggest("HARRY"),
            (std::vector<std::string>{"Harry Potter"}));
  EXPECT_TRUE(dict.Suggest("zzz").empty());
}

TEST(ValueDictionaryTest, LimitAndEmptyPrefix) {
  storage::Database db = MakeFigure2Db();
  const ValueDictionary dict(&db);
  EXPECT_EQ(dict.Suggest("", 3).size(), 3u);
  EXPECT_EQ(dict.size(), 8u);  // 3 titles + 5 names, all distinct
}

TEST(ValueDictionaryTest, ContainsVerbatimValues) {
  storage::Database db = MakeFigure2Db();
  const ValueDictionary dict(&db);
  EXPECT_TRUE(dict.Contains("Avatar"));
  EXPECT_FALSE(dict.Contains("avatar"));  // verbatim, case-sensitive
  EXPECT_FALSE(dict.Contains("Avatar 2"));
}

TEST(ValueDictionaryTest, SkipsNonSearchableColumns) {
  storage::Database db = MakeFigure2Db();
  const ValueDictionary dict(&db);
  // Integer key columns are not suggested.
  EXPECT_TRUE(dict.Suggest("0").empty());
}

}  // namespace
}  // namespace mweaver::text
