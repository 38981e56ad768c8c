#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <random>
#include <string>

#include "ast/parser.h"
#include "storage/interpretation.h"
#include "storage/state.h"

namespace chronolog {
namespace {

/// Small fixture: vocabulary with one temporal predicate p/2 (arity 1) and
/// one non-temporal predicate e/2.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = std::make_shared<Vocabulary>();
    auto p = vocab_->DeclarePredicate("p", 2);
    ASSERT_TRUE(p.ok());
    p_ = *p;
    vocab_->SetTemporal(p_);
    auto e = vocab_->DeclarePredicate("e", 2);
    ASSERT_TRUE(e.ok());
    e_ = *e;
    a_ = vocab_->InternConstant("a");
    b_ = vocab_->InternConstant("b");
  }

  GroundAtom P(int64_t t, SymbolId x) { return GroundAtom(p_, t, {x}); }
  GroundAtom E(SymbolId x, SymbolId y) { return GroundAtom(e_, 0, {x, y}); }

  std::shared_ptr<Vocabulary> vocab_;
  PredicateId p_ = 0;
  PredicateId e_ = 0;
  SymbolId a_ = 0;
  SymbolId b_ = 0;
};

TEST_F(StorageTest, InsertAndContains) {
  Interpretation interp(vocab_);
  EXPECT_TRUE(interp.Insert(P(3, a_)));
  EXPECT_FALSE(interp.Insert(P(3, a_)));  // duplicate
  EXPECT_TRUE(interp.Insert(E(a_, b_)));
  EXPECT_EQ(interp.size(), 2u);
  EXPECT_TRUE(interp.Contains(P(3, a_)));
  EXPECT_FALSE(interp.Contains(P(2, a_)));
  EXPECT_FALSE(interp.Contains(P(3, b_)));
  EXPECT_TRUE(interp.Contains(E(a_, b_)));
  EXPECT_FALSE(interp.Contains(E(b_, a_)));
}

TEST_F(StorageTest, SnapshotAndTimeline) {
  Interpretation interp(vocab_);
  interp.Insert(P(0, a_));
  interp.Insert(P(0, b_));
  interp.Insert(P(5, a_));
  EXPECT_EQ(interp.Snapshot(p_, 0).size(), 2u);
  EXPECT_EQ(interp.Snapshot(p_, 5).size(), 1u);
  EXPECT_EQ(interp.Snapshot(p_, 1).size(), 0u);
  EXPECT_EQ(interp.Timeline(p_).size(), 2u);
  EXPECT_EQ(interp.MaxTime(), 5);
}

TEST_F(StorageTest, MaxTimeEmptyIsMinusOne) {
  Interpretation interp(vocab_);
  EXPECT_EQ(interp.MaxTime(), -1);
  interp.Insert(E(a_, b_));
  EXPECT_EQ(interp.MaxTime(), -1);  // non-temporal facts carry no time
}

TEST_F(StorageTest, TruncateDropsBeyondBound) {
  Interpretation interp(vocab_);
  interp.Insert(P(0, a_));
  interp.Insert(P(7, a_));
  interp.Insert(E(a_, b_));
  Interpretation cut = interp;
  cut.TruncateInPlace(3);
  EXPECT_TRUE(cut.Contains(P(0, a_)));
  EXPECT_FALSE(cut.Contains(P(7, a_)));
  EXPECT_TRUE(cut.Contains(E(a_, b_)));  // non-temporal part survives
  EXPECT_EQ(cut.size(), 2u);
  // Original untouched.
  EXPECT_TRUE(interp.Contains(P(7, a_)));
}

TEST_F(StorageTest, SegmentEquals) {
  Interpretation x(vocab_);
  Interpretation y(vocab_);
  x.Insert(P(1, a_));
  y.Insert(P(1, a_));
  x.Insert(P(9, b_));  // beyond the compared segment
  EXPECT_TRUE(x.SegmentEquals(y, 5));
  EXPECT_FALSE(x.SegmentEquals(y, 9));
  y.Insert(P(2, b_));
  EXPECT_FALSE(x.SegmentEquals(y, 5));
}

TEST_F(StorageTest, SegmentEqualsChecksNonTemporalPart) {
  Interpretation x(vocab_);
  Interpretation y(vocab_);
  x.Insert(E(a_, b_));
  EXPECT_FALSE(x.SegmentEquals(y, 10, /*and_non_temporal=*/true));
  EXPECT_TRUE(x.SegmentEquals(y, 10, /*and_non_temporal=*/false));
  y.Insert(E(a_, b_));
  EXPECT_TRUE(x.SegmentEquals(y, 10));
}

TEST_F(StorageTest, EqualityOperator) {
  Interpretation x(vocab_);
  Interpretation y(vocab_);
  EXPECT_TRUE(x == y);
  x.Insert(P(4, a_));
  EXPECT_FALSE(x == y);
  y.Insert(P(4, a_));
  EXPECT_TRUE(x == y);
}

TEST_F(StorageTest, ForEachVisitsEverything) {
  Interpretation interp(vocab_);
  interp.Insert(P(1, a_));
  interp.Insert(P(2, b_));
  interp.Insert(E(a_, a_));
  int count = 0;
  interp.ForEach([&](PredicateId, int64_t, const Tuple&) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST_F(StorageTest, InsertDatabase) {
  auto unit = Parser::Parse("p(2, x). q(y).");
  ASSERT_TRUE(unit.ok());
  Interpretation interp(unit->database.vocab_ptr());
  interp.InsertDatabase(unit->database);
  EXPECT_EQ(interp.size(), 2u);
}

TEST_F(StorageTest, VocabularyGrowthIsTolerated) {
  Interpretation interp(vocab_);
  // Declare a new predicate after the interpretation exists.
  auto q = vocab_->DeclarePredicate("q", 1);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(interp.Contains(GroundAtom(*q, 0, {a_})));
  EXPECT_TRUE(interp.Insert(GroundAtom(*q, 0, {a_})));
  EXPECT_TRUE(interp.Contains(GroundAtom(*q, 0, {a_})));
}

// --------------------------------------------------------------------------
// States and windows
// --------------------------------------------------------------------------

TEST_F(StorageTest, StateProjectsOutTime) {
  Interpretation interp(vocab_);
  interp.Insert(P(3, a_));
  interp.Insert(P(3, b_));
  interp.Insert(P(8, a_));
  State s3 = State::FromInterpretation(interp, 3);
  State s8 = State::FromInterpretation(interp, 8);
  State s9 = State::FromInterpretation(interp, 9);
  EXPECT_EQ(s3.size(), 2u);
  EXPECT_EQ(s8.size(), 1u);
  EXPECT_TRUE(s9.empty());
  EXPECT_NE(s3, s8);
  // The paper's periodicity comparisons: M[3] vs a time with the same
  // projected tuples.
  interp.Insert(P(11, a_));
  interp.Insert(P(11, b_));
  EXPECT_EQ(s3, State::FromInterpretation(interp, 11));
}

TEST_F(StorageTest, StateHashIsOrderIndependent) {
  Interpretation x(vocab_);
  Interpretation y(vocab_);
  x.Insert(P(0, a_));
  x.Insert(P(0, b_));
  y.Insert(P(0, b_));
  y.Insert(P(0, a_));
  State sx = State::FromInterpretation(x, 0);
  State sy = State::FromInterpretation(y, 0);
  EXPECT_EQ(sx, sy);
  EXPECT_EQ(sx.Hash(), sy.Hash());
}

TEST_F(StorageTest, StateIgnoresNonTemporalFacts) {
  Interpretation interp(vocab_);
  interp.Insert(E(a_, b_));
  EXPECT_TRUE(State::FromInterpretation(interp, 0).empty());
}

// --------------------------------------------------------------------------
// Block timelines: cell address stability, bounded reuse, mid-block truncation
// --------------------------------------------------------------------------

TEST_F(StorageTest, SnapshotCellSurvivesAppendedAndPrependedBlocks) {
  constexpr int64_t kBlock = BlockTimeline::kBlockCells;
  Interpretation interp(vocab_);
  interp.Insert(P(kBlock + 44, a_));
  const Relation* cell = &interp.Snapshot(p_, kBlock + 44);
  ASSERT_EQ(cell->size(), 1u);
  // Appended blocks, enough of them to reallocate the block directory.
  for (int64_t k = 2; k < 40; ++k) interp.Insert(P(k * kBlock + 3, b_));
  EXPECT_EQ(&interp.Snapshot(p_, kBlock + 44), cell);
  // A block prepended before the timeline's base, and one more in the same
  // block as the held cell.
  interp.Insert(P(5, a_));
  interp.Insert(P(kBlock + 45, a_));
  EXPECT_EQ(&interp.Snapshot(p_, kBlock + 44), cell);
  EXPECT_EQ(cell->size(), 1u);
  EXPECT_TRUE(cell->Contains(Tuple{a_}));
  EXPECT_FALSE(cell->Contains(Tuple{b_}));
  // The held cell also takes further inserts in place.
  interp.Insert(P(kBlock + 44, b_));
  EXPECT_EQ(&interp.Snapshot(p_, kBlock + 44), cell);
  EXPECT_EQ(cell->size(), 2u);
  EXPECT_EQ(interp.Timeline(p_).size(), 38u + 3u);
  EXPECT_EQ(interp.MaxTime(), 39 * kBlock + 3);
}

TEST_F(StorageTest, ClearAndSlidingRefillKeepBlockCountBounded) {
  Interpretation interp(vocab_);
  std::size_t most_blocks = 0;
  for (int64_t r = 1; r <= 10000; ++r) {
    interp.Clear();
    ASSERT_TRUE(interp.Insert(P(2 * r, a_)));
    ASSERT_TRUE(interp.Insert(P(2 * r + 3, b_)));  // sometimes the next block
    ASSERT_EQ(interp.size(), 2u);
    ASSERT_TRUE(interp.Contains(P(2 * r, a_)));
    ASSERT_FALSE(interp.Contains(P(2 * r - 2, a_)));
    most_blocks =
        std::max(most_blocks, interp.Timeline(p_).allocated_blocks());
  }
  // Two live blocks at most, however far the window slid.
  EXPECT_LE(most_blocks, 2u);
}

TEST_F(StorageTest, TruncateInPlaceMidBlockDropsExactlyTheSuffix) {
  constexpr int64_t kBlock = BlockTimeline::kBlockCells;
  for (int64_t m : {int64_t{-1}, int64_t{0}, kBlock - 1, kBlock,
                    kBlock + 100, 3 * kBlock - 1, 5 * kBlock}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    Interpretation interp(vocab_);
    for (int64_t t = 0; t < 3 * kBlock; t += 3) {
      interp.Insert(P(t, a_));
      interp.Insert(P(t + 1, b_));
    }
    interp.Insert(E(a_, b_));
    const std::size_t before = interp.size();
    interp.TruncateInPlace(m);
    std::size_t kept = 1;  // the non-temporal fact
    for (int64_t t = 0; t < 3 * kBlock + 2; ++t) {
      const bool a_fact = t % 3 == 0 && t < 3 * kBlock;
      const bool b_fact = t % 3 == 1 && t < 3 * kBlock;
      EXPECT_EQ(interp.Contains(P(t, a_)), a_fact && t <= m) << t;
      EXPECT_EQ(interp.Contains(P(t, b_)), b_fact && t <= m) << t;
      if ((a_fact || b_fact) && t <= m) ++kept;
    }
    EXPECT_EQ(interp.size(), kept);
    EXPECT_LE(interp.size(), before);
    EXPECT_TRUE(interp.Contains(E(a_, b_)));
    int64_t last = -1;
    for (int64_t t = 0; t <= std::min<int64_t>(m, 3 * kBlock - 1); ++t) {
      if (t % 3 != 2) last = t;
    }
    EXPECT_EQ(interp.MaxTime(), last);
    // The first time past the cut refills like a fresh one.
    EXPECT_TRUE(interp.Insert(P(m + 1, b_)));
    EXPECT_EQ(interp.MaxTime(), m + 1);
  }
}

TEST_F(StorageTest, FactAtLargestTimeEndsTimelineWalks) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Interpretation interp(vocab_);
  interp.Insert(P(kMax, a_));
  interp.Insert(P(kMax - 1, b_));
  interp.Insert(P(3, b_));
  EXPECT_EQ(interp.MaxTime(), kMax);
  // Each walk visits the last cell once and stops. The first walk gives up
  // after a few cells, so a walk that wraps around fails here rather than
  // hang the walks below.
  std::vector<int64_t> times;
  for (const auto& [time, cell] : interp.Timeline(p_).From(kMax - 1)) {
    times.push_back(time);
    if (times.size() > 4) break;
  }
  ASSERT_EQ(times, (std::vector<int64_t>{kMax - 1, kMax}));
  times.clear();
  interp.ForEach([&](PredicateId, int64_t time, const Tuple&) {
    times.push_back(time);
  });
  EXPECT_EQ(times, (std::vector<int64_t>{3, kMax - 1, kMax}));
  Interpretation copy = interp;
  EXPECT_TRUE(interp.SegmentEquals(copy, kMax));
  EXPECT_TRUE(interp == copy);
  copy.Insert(P(kMax, b_));
  EXPECT_FALSE(interp.SegmentEquals(copy, kMax));
  EXPECT_TRUE(interp.SegmentEquals(copy, kMax - 1));
  copy.TruncateInPlace(kMax - 1);
  EXPECT_EQ(copy.MaxTime(), kMax - 1);
  EXPECT_EQ(copy.size(), 2u);
  interp.TruncateInPlace(kMax);
  EXPECT_EQ(interp.size(), 3u);
}

TEST_F(StorageTest, SparseTimelineCostsItsFactsNotItsSpan) {
  // 3000 facts 300 time points apart, in descending then shuffled order:
  // each lands in its own block or shares one with a neighbour.
  std::vector<int64_t> times;
  for (int64_t i = 2999; i >= 0; --i) times.push_back(300 * i);
  for (int order = 0; order < 2; ++order) {
    Interpretation interp(vocab_);
    for (int64_t t : times) ASSERT_TRUE(interp.Insert(P(t, a_)));
    const BlockTimeline& timeline = interp.Timeline(p_);
    EXPECT_EQ(timeline.size(), 3000u);
    // One cell per fact, give or take the pool's last half-used chunk.
    EXPECT_LE(timeline.allocated_cells(), 3000u + 256u);
    EXPECT_LE(timeline.allocated_blocks(), 3000u);
    EXPECT_TRUE(interp.Contains(P(300 * 1234, a_)));
    EXPECT_FALSE(interp.Contains(P(300 * 1234 + 1, a_)));
    EXPECT_EQ(interp.MaxTime(), 300 * 2999);
    std::mt19937 rng(7);
    std::shuffle(times.begin(), times.end(), rng);
  }
}

TEST_F(StorageTest, EmptySnapshotIsSharedAndStaysEmpty) {
  Interpretation interp(vocab_);
  interp.Insert(P(100, a_));
  const Relation& empty = interp.Snapshot(p_, 5);
  EXPECT_TRUE(empty.empty());
  interp.TruncateInPlace(50);
  EXPECT_TRUE(empty.empty());
  // Facts inserted later at that time land in a cell of their own.
  interp.Insert(P(5, a_));
  EXPECT_TRUE(empty.empty());
  EXPECT_NE(&interp.Snapshot(p_, 5), &empty);
  EXPECT_EQ(interp.Snapshot(p_, 5).size(), 1u);
}

}  // namespace
}  // namespace chronolog
