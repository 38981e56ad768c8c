// Column-index probes of Interpretation and their interaction with the
// rule evaluator (hash joins vs the nested-loop baseline).

#include <gtest/gtest.h>

#include <algorithm>
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
  const auto* bucket = interp.NonTemporal(e_).Probe(0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  const auto* col1 = interp.NonTemporal(e_).Probe(1, c_);
  ASSERT_NE(col1, nullptr);
  EXPECT_EQ(col1->size(), 2u);
  EXPECT_EQ(interp.NonTemporal(e_).Probe(0, c_), nullptr);
}

TEST_F(IndexTest, IndexIsMaintainedAcrossInserts) {
  Interpretation interp(vocab_);
  interp.Insert(e_, 0, {a_, b_});
  // Build the index first...
  ASSERT_NE(interp.NonTemporal(e_).Probe(0, a_), nullptr);
  // ...then keep inserting: the bucket must grow.
  interp.Insert(e_, 0, {a_, c_});
  interp.Insert(e_, 0, {b_, b_});
  const auto* bucket = interp.NonTemporal(e_).Probe(0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  EXPECT_EQ(interp.NonTemporal(e_).Probe(0, b_)->size(), 1u);
}

TEST_F(IndexTest, SnapshotProbe) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 3, {a_});
  interp.Insert(p_, 3, {b_});
  interp.Insert(p_, 5, {a_});
  const auto* bucket = interp.Snapshot(p_, 3).Probe(0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u);
  // Buckets hold row ids into the probed snapshot's relation.
  EXPECT_EQ(interp.Snapshot(p_, 3).at((*bucket)[0], 0), a_);
  EXPECT_EQ(interp.Snapshot(p_, 4).Probe(0, a_), nullptr);  // empty snapshot
  EXPECT_EQ(interp.Snapshot(p_, 3).Probe(0, c_), nullptr);  // empty bucket
}

TEST_F(IndexTest, SnapshotIndexMaintainedAcrossInserts) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 1, {a_});
  ASSERT_NE(interp.Snapshot(p_, 1).Probe(0, a_), nullptr);
  interp.Insert(p_, 1, {a_});  // duplicate: no growth
  EXPECT_EQ(interp.Snapshot(p_, 1).Probe(0, a_)->size(), 1u);
  interp.Insert(p_, 1, {b_});
  EXPECT_EQ(interp.Snapshot(p_, 1).Probe(0, b_)->size(), 1u);
}

TEST_F(IndexTest, CopyDropsIndexSafely) {
  Interpretation interp(vocab_);
  interp.Insert(e_, 0, {a_, b_});
  ASSERT_NE(interp.NonTemporal(e_).Probe(0, a_), nullptr);
  Interpretation copy = interp;
  // The copy carries the index, which addresses the copy's own relation
  // (row ids are positional), and sees the same facts.
  const auto* bucket = copy.NonTemporal(e_).Probe(0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u);
  // Inserting into the copy must not disturb the original.
  copy.Insert(e_, 0, {a_, c_});
  EXPECT_EQ(interp.NonTemporal(e_).Probe(0, a_)->size(), 1u);
  EXPECT_EQ(copy.NonTemporal(e_).Probe(0, a_)->size(), 2u);
}

TEST_F(IndexTest, TruncateInvalidatesSnapshotIndex) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 1, {a_});
  interp.Insert(p_, 9, {a_});
  ASSERT_NE(interp.Snapshot(p_, 9).Probe(0, a_), nullptr);
  interp.TruncateInPlace(5);
  EXPECT_EQ(interp.Snapshot(p_, 9).Probe(0, a_), nullptr);
  ASSERT_NE(interp.Snapshot(p_, 1).Probe(0, a_), nullptr);
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

/// The sweep's random program for `seed`: relations wider than
/// Relation::kInlineRows (narrower ones are scanned, never probed) and
/// two-argument temporal predicates, so joins probe second columns as well
/// as first ones.
std::string WideProgramSource(uint32_t seed) {
  std::mt19937 rng(seed);
  workload::RandomProgramOptions options;
  options.progressive_only = (seed % 2 == 0);
  options.temporal_columns = 2;
  options.num_constants = 12;
  options.num_facts = 60;
  return workload::RandomProgramSource(options, &rng);
}

/// Rows of the widest relation (non-temporal, or one snapshot cell).
std::size_t WidestRelation(const Interpretation& model) {
  std::size_t widest = 0;
  for (PredicateId pred : model.vocab().AllPredicates()) {
    if (!model.vocab().predicate(pred).is_temporal) {
      widest = std::max(widest, model.NonTemporal(pred).size());
      continue;
    }
    for (const auto& [time, cell] : model.Timeline(pred)) {
      widest = std::max(widest, cell.size());
    }
  }
  return widest;
}

bool PlansProbeLaterColumn(const RulePlanReport& plans) {
  for (const auto& slots : plans) {
    for (const PlanSlotReport& slot : slots) {
      for (int32_t col : slot.probe_cols) {
        if (col > 0) return true;
      }
    }
  }
  return false;
}

constexpr uint32_t kSweepSeeds = 20;

class IndexAblation : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IndexAblation, IndexedAndUnindexedFixpointsAgree) {
  const std::string src = WideProgramSource(GetParam());
  SCOPED_TRACE(src);
  auto unit = Parser::Parse(src);
  ASSERT_TRUE(unit.ok()) << unit.status();
  const Interpretation model = ExpectIndexAblationAgrees(*unit);
  // The comparison guards the probe path only if it reaches it.
  EXPECT_GT(WidestRelation(model), Relation::kInlineRows);
}

// The sweep as a whole must also probe columns other than the first: a
// column index built over the wrong column then drops facts.
TEST(IndexAblationCoverage, SweepPlansProbesOfLaterColumns) {
  uint32_t seeds_probing_later = 0;
  for (uint32_t seed = 0; seed < kSweepSeeds; ++seed) {
    auto unit = Parser::Parse(WideProgramSource(seed));
    ASSERT_TRUE(unit.ok()) << unit.status();
    FixpointOptions options;
    options.max_time = 12;
    RulePlanReport plans;
    options.plan_report = &plans;
    ASSERT_TRUE(SemiNaiveFixpoint(unit->program, unit->database, options).ok());
    if (PlansProbeLaterColumn(plans)) ++seeds_probing_later;
  }
  EXPECT_GE(seeds_probing_later, kSweepSeeds / 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexAblation,
                         ::testing::Range(0u, kSweepSeeds));

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
