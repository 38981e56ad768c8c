// Allocation budget of the semi-naive round loop. Theorem 4.1 makes BT
// linear in the query depth `h`, so the per-round fixed cost is the constant
// in front of `h`; heap allocations are its largest part. This binary
// replaces the global `operator new` with a counting one and checks the
// allocations per BT round at a fixed horizon — a host-independent number,
// unlike a timing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "ast/parser.h"
#include "eval/bt.h"
#include "query/query_parser.h"
#include "workload/generators.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace chronolog {
namespace {

/// Runs BT for `query` at a fixed truncation bound and returns the heap
/// allocations per semi-naive round.
double AllocationsPerRound(const std::string& source, const std::string& query,
                           int64_t horizon) {
  auto unit = Parser::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  auto atom = ParseGroundAtom(query, unit->program.vocab());
  EXPECT_TRUE(atom.ok()) << atom.status();
  BtOptions options;
  options.horizon = horizon;
  const uint64_t before = g_allocations.load();
  auto result = RunBt(unit->program, unit->database, *atom, options);
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->answer) << query;
  EXPECT_GT(result->stats.iterations, 1000u) << query;
  const double per_round = static_cast<double>(allocations) /
                           static_cast<double>(result->stats.iterations);
  std::printf("%s: %.2f allocations per round over %llu rounds\n",
              query.c_str(), per_round,
              static_cast<unsigned long long>(result->stats.iterations));
  return per_round;
}

TEST(AllocBudgetTest, CounterSeesAllocations) {
  const uint64_t before = g_allocations.load();
  auto* boxed = new std::string(64, 'x');
  delete boxed;
  EXPECT_GE(g_allocations.load() - before, 2u);
}

TEST(AllocBudgetTest, EvenRoundAllocatesAtMostThree) {
  const double per_round =
      AllocationsPerRound(workload::EvenSource(), "even(20000)", 20000);
  EXPECT_LE(per_round, 3.0);
}

TEST(AllocBudgetTest, SkewedJoinRoundAllocatesAtMostSix) {
  const double per_round =
      AllocationsPerRound(workload::SkewedJoinSource(64), "hit(10000, a)",
                          10000);
  EXPECT_LE(per_round, 6.0);
}

TEST(AllocBudgetTest, SkiScheduleRoundAllocatesAtMostTwentyEight) {
  const double per_round = AllocationsPerRound(
      workload::SkiScheduleSource(2, 28, 8, 2), "resort(resort0)", 10000);
  EXPECT_LE(per_round, 28.0);
}

}  // namespace
}  // namespace chronolog
