// The incremental doubling detector (hash-frontier PeriodCandidateTracker,
// resumed across doublings) must return exactly the answer of the reference
// procedure it replaced: recompute the truncated model from scratch at every
// probe horizon, extract all states, and run FindMinimalPeriodInWindow on
// them. This file re-implements that reference loop and sweeps both over
// fixed non-progressive workloads and random programs. The overflow clamp of
// the doubling schedule (NextDoublingHorizon) is unit-tested directly — an
// end-to-end run near INT64_MAX horizons is not representable in memory.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "spec/period.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

/// A random program with backward rules allowed. It can still come out
/// progressive (no rule happens to look past its head); callers redraw.
std::string RandomBackwardSource(std::mt19937* rng) {
  workload::RandomProgramOptions options;
  options.progressive_only = false;
  options.max_offset = 2;
  options.num_rules = 5;
  options.num_facts = 8;
  return workload::RandomProgramSource(options, rng);
}

struct ReferenceDetection {
  Period period;
  int64_t horizon = 0;
};

/// The seed implementation of verified doubling, kept as the oracle: a
/// from-scratch fixpoint at every probe horizon, full state extraction, full
/// window scan, acceptance on a (k, p) stable across one doubling.
std::optional<ReferenceDetection> ReferenceDoubling(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options) {
  const int64_t c = db.MaxTemporalDepth();
  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());
  int64_t m = std::max(kInitialDoublingHorizon, c + 4 * g + 4);
  bool have_candidate = false;
  int64_t prev_k = -1;
  int64_t prev_p = -1;
  while (m <= options.max_horizon) {
    FixpointOptions fp;
    fp.max_time = m;
    fp.max_facts = options.max_facts;
    auto model = SemiNaiveFixpoint(program, db, fp);
    EXPECT_TRUE(model.ok()) << model.status();
    std::vector<State> states = ExtractStates(*model, 0, m);
    int64_t k = 0;
    int64_t p = 0;
    if (FindMinimalPeriodInWindow(states, /*min_cycles=*/3, &k, &p)) {
      if (have_candidate && k == prev_k && p == prev_p) {
        return ReferenceDetection{Period{std::max<int64_t>(0, k - c), p}, m};
      }
      have_candidate = true;
      prev_k = k;
      prev_p = p;
    } else {
      have_candidate = false;
    }
    m *= 2;
  }
  return std::nullopt;
}

void ExpectDetectorMatchesReference(const std::string& src,
                                    const PeriodDetectionOptions& options) {
  SCOPED_TRACE(src);
  auto unit = Parser::Parse(src);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_FALSE(CheckProgressive(unit->program).progressive)
      << "workload must exercise the doubling path";

  auto detection = DetectPeriod(unit->program, unit->database, options);
  std::optional<ReferenceDetection> reference =
      ReferenceDoubling(unit->program, unit->database, options);

  if (!reference.has_value()) {
    EXPECT_EQ(detection.status().code(), StatusCode::kResourceExhausted)
        << detection.status();
    return;
  }
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_EQ(detection->period.b, reference->period.b);
  EXPECT_EQ(detection->period.p, reference->period.p);
  EXPECT_EQ(detection->horizon, reference->horizon);
  EXPECT_FALSE(detection->exact);
}

TEST(PeriodEquivalenceTest, RingWithNonTemporalProjection) {
  // `seen` breaks progressivity (temporal body, non-temporal head), so the
  // lcm(2,3,5) = 30 ring period is found by doubling.
  ExpectDetectorMatchesReference(
      workload::TokenRingSource({2, 3, 5}) + "seen(X) :- tok(T, X).\n",
      PeriodDetectionOptions{});
}

TEST(PeriodEquivalenceTest, BackwardChainWorkload) {
  ExpectDetectorMatchesReference(
      "q(40).\n"
      "p(T) :- q(T+1).\n"
      "p(T) :- p(T+1).\n"
      "r(T+2) :- r(T).\n"
      "r(1).\n",
      PeriodDetectionOptions{});
}

class EquivalenceSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EquivalenceSweep, RandomNonProgressiveProgramsAgree) {
  // Redraw from the seed's stream until the program is non-progressive
  // (the first draw is progressive for 3 of the 20 seeds), so every seed
  // tests the doubling path. Seeds whose first draw qualifies keep it.
  constexpr int kMaxDraws = 16;
  std::mt19937 rng(GetParam() + 700);
  std::string src;
  bool non_progressive = false;
  for (int draw = 0; draw < kMaxDraws && !non_progressive; ++draw) {
    src = RandomBackwardSource(&rng);
    auto unit = Parser::Parse(src);
    ASSERT_TRUE(unit.ok()) << unit.status();
    non_progressive = !CheckProgressive(unit->program).progressive;
  }
  ASSERT_TRUE(non_progressive)
      << kMaxDraws << " draws in a row were progressive";
  PeriodDetectionOptions options;
  options.max_horizon = 1 << 12;
  ExpectDetectorMatchesReference(src, options);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalenceSweep, ::testing::Range(0u, 20u));

// ---------------------------------------------------------------------------
// Doubling-schedule overflow clamp
// ---------------------------------------------------------------------------

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(NextDoublingHorizonTest, DoublesWithinBudget) {
  EXPECT_EQ(NextDoublingHorizon(64, 1 << 20), 128);
  EXPECT_EQ(NextDoublingHorizon(1 << 19, 1 << 20), 1 << 20);
}

TEST(NextDoublingHorizonTest, StopsWhenDoublingWouldExceedBudget) {
  EXPECT_EQ(NextDoublingHorizon((1 << 19) + 1, 1 << 20), -1);
  EXPECT_EQ(NextDoublingHorizon(1 << 20, 1 << 20), -1);
}

TEST(NextDoublingHorizonTest, NoOverflowAtInt64Extremes) {
  // The unclamped `m *= 2` wrapped negative here and the probe loop spun on
  // a nonsense horizon instead of reporting exhaustion.
  EXPECT_EQ(NextDoublingHorizon(kMax / 2, kMax), 2 * (kMax / 2));
  EXPECT_EQ(NextDoublingHorizon(kMax / 2 + 1, kMax), -1);
  EXPECT_EQ(NextDoublingHorizon(kMax - 1, kMax), -1);
  EXPECT_EQ(NextDoublingHorizon(kMax, kMax), -1);
}

TEST(NextDoublingHorizonTest, ScheduleAlwaysTerminates) {
  // Even with the maximal budget the schedule is finite and stays positive.
  int64_t m = 64;
  int steps = 0;
  while (m > 0) {
    ASSERT_LE(m, kMax);
    m = NextDoublingHorizon(m, kMax);
    ASSERT_LT(++steps, 64);
  }
  EXPECT_EQ(m, -1);
}

}  // namespace
}  // namespace chronolog
