// Column-index probes of Interpretation and their interaction with the
// rule evaluator (hash joins vs the nested-loop baseline).

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "storage/interpretation.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = std::make_shared<Vocabulary>();
    auto e = vocab_->DeclarePredicate("e", 2);
    ASSERT_TRUE(e.ok());
    e_ = *e;
    auto p = vocab_->DeclarePredicate("p", 2);
    ASSERT_TRUE(p.ok());
    p_ = *p;
    vocab_->SetTemporal(p_);
    a_ = vocab_->InternConstant("a");
    b_ = vocab_->InternConstant("b");
    c_ = vocab_->InternConstant("c");
  }

  std::shared_ptr<Vocabulary> vocab_;
  PredicateId e_ = 0;
  PredicateId p_ = 0;
  SymbolId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(IndexTest, NonTemporalProbeFindsBuckets) {
  Interpretation interp(vocab_);
  interp.Insert(e_, 0, {a_, b_});
  interp.Insert(e_, 0, {a_, c_});
  interp.Insert(e_, 0, {b_, c_});
  const auto* bucket = interp.ProbeNonTemporal(e_, 0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  const auto* col1 = interp.ProbeNonTemporal(e_, 1, c_);
  ASSERT_NE(col1, nullptr);
  EXPECT_EQ(col1->size(), 2u);
  EXPECT_EQ(interp.ProbeNonTemporal(e_, 0, c_), nullptr);
}

TEST_F(IndexTest, IndexIsMaintainedAcrossInserts) {
  Interpretation interp(vocab_);
  interp.Insert(e_, 0, {a_, b_});
  // Build the index first...
  ASSERT_NE(interp.ProbeNonTemporal(e_, 0, a_), nullptr);
  // ...then keep inserting: the bucket must grow.
  interp.Insert(e_, 0, {a_, c_});
  interp.Insert(e_, 0, {b_, b_});
  const auto* bucket = interp.ProbeNonTemporal(e_, 0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  EXPECT_EQ(interp.ProbeNonTemporal(e_, 0, b_)->size(), 1u);
}

TEST_F(IndexTest, SnapshotProbe) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 3, {a_});
  interp.Insert(p_, 3, {b_});
  interp.Insert(p_, 5, {a_});
  const auto* bucket = interp.ProbeSnapshot(p_, 3, 0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u);
  // Buckets hold row ids into the probed snapshot's relation.
  EXPECT_EQ(interp.Snapshot(p_, 3).at((*bucket)[0], 0), a_);
  EXPECT_EQ(interp.ProbeSnapshot(p_, 4, 0, a_), nullptr);  // empty snapshot
  EXPECT_EQ(interp.ProbeSnapshot(p_, 3, 0, c_), nullptr);  // empty bucket
}

TEST_F(IndexTest, SnapshotIndexMaintainedAcrossInserts) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 1, {a_});
  ASSERT_NE(interp.ProbeSnapshot(p_, 1, 0, a_), nullptr);
  interp.Insert(p_, 1, {a_});  // duplicate: no growth
  EXPECT_EQ(interp.ProbeSnapshot(p_, 1, 0, a_)->size(), 1u);
  interp.Insert(p_, 1, {b_});
  EXPECT_EQ(interp.ProbeSnapshot(p_, 1, 0, b_)->size(), 1u);
}

TEST_F(IndexTest, CopyDropsIndexSafely) {
  Interpretation interp(vocab_);
  interp.Insert(e_, 0, {a_, b_});
  ASSERT_NE(interp.ProbeNonTemporal(e_, 0, a_), nullptr);
  Interpretation copy = interp;
  // The copy carries the index, which addresses the copy's own relation
  // (row ids are positional), and sees the same facts.
  const auto* bucket = copy.ProbeNonTemporal(e_, 0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u);
  // Inserting into the copy must not disturb the original.
  copy.Insert(e_, 0, {a_, c_});
  EXPECT_EQ(interp.ProbeNonTemporal(e_, 0, a_)->size(), 1u);
  EXPECT_EQ(copy.ProbeNonTemporal(e_, 0, a_)->size(), 2u);
}

TEST_F(IndexTest, TruncateInvalidatesSnapshotIndex) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 1, {a_});
  interp.Insert(p_, 9, {a_});
  ASSERT_NE(interp.ProbeSnapshot(p_, 9, 0, a_), nullptr);
  interp.TruncateInPlace(5);
  EXPECT_EQ(interp.ProbeSnapshot(p_, 9, 0, a_), nullptr);
  ASSERT_NE(interp.ProbeSnapshot(p_, 1, 0, a_), nullptr);
}

// The ablation invariant: fixpoints with and without the index produce the
// identical least model. Returns the indexed one.
Interpretation ExpectIndexAblationAgrees(const ParsedUnit& unit) {
  FixpointOptions with_index;
  with_index.max_time = 12;
  FixpointOptions without_index = with_index;
  without_index.use_index = false;
  auto indexed = SemiNaiveFixpoint(unit.program, unit.database, with_index);
  auto scanned = SemiNaiveFixpoint(unit.program, unit.database, without_index);
  EXPECT_TRUE(indexed.ok());
  EXPECT_TRUE(scanned.ok());
  if (!indexed.ok() || !scanned.ok()) {
    return Interpretation(unit.program.vocab_ptr());
  }
  EXPECT_TRUE(*indexed == *scanned);
  return std::move(*indexed);
}

class IndexAblation : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IndexAblation, IndexedAndUnindexedFixpointsAgree) {
  std::mt19937 rng(GetParam());
  workload::RandomProgramOptions options;
  options.progressive_only = (GetParam() % 2 == 0);
  std::string src = workload::RandomProgramSource(options, &rng);
  SCOPED_TRACE(src);
  auto unit = Parser::Parse(src);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ExpectIndexAblationAgrees(*unit);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexAblation, ::testing::Range(0u, 20u));

// The evaluator scans cells of at most Relation::kInlineRows rows and probes
// larger ones: joins through cells on both sides of that boundary (8 and 9
// rows, temporal and non-temporal) must give the same least model with and
// without the index.
TEST_F(IndexTest, InlineSizedCellsAgreeWithAndWithoutIndex) {
  static_assert(Relation::kInlineRows == 8, "update the boundary sizes");
  for (int n : {8, 9}) {
    std::string src;
    for (int i = 0; i < n; ++i) {
      src += "p(0, x" + std::to_string(i % 2) + ", c" + std::to_string(i) +
             ").\n";
      src += "e(x" + std::to_string((i / 2) % 2) + ", c" + std::to_string(i) +
             ").\n";
    }
    src +=
        "p(T+1, X, Y) :- p(T, X, Y).\n"
        "q(T, Y) :- p(T, X, Y), e(X, Y).\n"
        "s(T+1, Y) :- q(T, Y), p(T, x0, Y).\n";
    SCOPED_TRACE(src);
    auto unit = Parser::Parse(src);
    ASSERT_TRUE(unit.ok()) << unit.status();
    const Interpretation model = ExpectIndexAblationAgrees(*unit);
    const Vocabulary& vocab = unit->program.vocab();
    EXPECT_EQ(model.Snapshot(vocab.FindPredicate("p"), 3).size(),
              static_cast<std::size_t>(n));
    // The joins filter: about half of p's rows meet e, and fewer meet x0.
    const std::size_t q = model.Snapshot(vocab.FindPredicate("q"), 3).size();
    EXPECT_GT(q, 0u);
    EXPECT_LT(q, static_cast<std::size_t>(n));
    EXPECT_FALSE(model.Snapshot(vocab.FindPredicate("s"), 3).empty());
  }
}

}  // namespace
}  // namespace chronolog
