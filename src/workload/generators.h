#ifndef CHRONOLOG_WORKLOAD_GENERATORS_H_
#define CHRONOLOG_WORKLOAD_GENERATORS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace chronolog::workload {

/// Generators for the workloads used by the test suite and the benchmark
/// harness (experiments E1-E9 of DESIGN.md). All generators emit chronolog
/// surface syntax, so they also exercise the parser end to end.

// ---------------------------------------------------------------------------
// Paper Section 2, Example 2: bounded-length paths (inflationary).
// ---------------------------------------------------------------------------

/// The three path rules:
///   path(K,X,X)   :- node(X), null(K).
///   path(K+1,X,Z) :- edge(X,Y), path(K,Y,Z).
///   path(K+1,X,Y) :- path(K,X,Y).
std::string PathProgramSource();

/// `node/edge` facts for a random directed graph with `nodes` vertices and
/// `edges` edges (duplicates possible), plus `null(0)`.
std::string RandomGraphFactsSource(int nodes, int edges, std::mt19937* rng);

/// A simple directed cycle over `nodes` vertices (diameter = nodes - 1).
std::string CycleGraphFactsSource(int nodes);

// ---------------------------------------------------------------------------
// Paper Section 2, Example 1: ski-resort flight schedule (multi-separable).
// ---------------------------------------------------------------------------

/// The scaled schedule: `resorts` resorts, a year of `year_len` days split
/// into winter `[0, winter_len)` and off-season `[winter_len, year_len)`,
/// with the first `holidays` days also holidays. Uses the paper's rules
/// with the year length as the season period.
std::string SkiScheduleSource(int resorts, int year_len, int winter_len,
                              int holidays);

// ---------------------------------------------------------------------------
// Exponential-period witnesses (Theorem 3.1).
// ---------------------------------------------------------------------------

/// Token rings: `tok(T+1,Y) :- tok(T,X), ring(X,Y).` with one directed ring
/// per entry of `ring_lengths` and one token on each ring. The least model
/// has minimal period lcm(ring_lengths) — exponential in the (unary)
/// database size for pairwise-coprime lengths. Not multi-separable, not
/// inflationary.
std::string TokenRingSource(const std::vector<int>& ring_lengths);

/// A ripple-carry binary counter over `bits` database-provided bit
/// positions; the fixed normal program increments the counter every step,
/// so the least model has minimal period `2^bits` — exponential in the
/// database size with a constant program.
std::string BinaryCounterSource(int bits);

/// Multi-separable contrast for E2: one self-delay predicate per entry,
/// `d_i(T+k_i) :- d_i(T).` seeded at 0. Database-independent I-period.
std::string DelayChainSource(const std::vector<int>& delays);

// ---------------------------------------------------------------------------
// Tiny classics.
// ---------------------------------------------------------------------------

/// `even(0). even(T+2) :- even(T).` — the paper's running example.
std::string EvenSource();

/// Selectivity-skew microbench: `hit(T+1,X) :- hit(T,X), wide(X,Y),
/// narrow(Y).` with `wide` holding `wide` rows of identical X and `narrow`
/// a single row. Source-order joins enumerate every `wide` row per
/// timestep; a selectivity-driven order probes `narrow` first and stays
/// O(1) per step — the workload behind BM_BtSkewedJoin and the join-planner
/// tests.
std::string SkewedJoinSource(int wide);

// ---------------------------------------------------------------------------
// Datalog inputs for the Theorem 6.2 temporalisation (experiment E7).
// ---------------------------------------------------------------------------

/// Strongly bounded Datalog: non-recursive two-hop reachability.
std::string BoundedDatalogSource();

/// Unbounded Datalog: transitive closure `tc`.
std::string TransitiveClosureDatalogSource();

// ---------------------------------------------------------------------------
// Random programs for property-based tests.
// ---------------------------------------------------------------------------

struct RandomProgramOptions {
  int num_temporal_preds = 3;
  int num_nontemporal_preds = 2;
  int num_constants = 4;
  int num_rules = 6;
  int num_facts = 10;
  int max_body_atoms = 3;
  int max_offset = 1;       // temporal offsets drawn from [0, max_offset]
  int max_fact_time = 3;
  /// When true, rule bodies never look past their head (progressive).
  bool progressive_only = true;
  /// Non-temporal arguments of each temporal predicate: 1 (`tp(T, X)`) or 2
  /// (`tp(T, X, Y)`, with either variable in either column, so joins bind
  /// second columns too).
  int temporal_columns = 1;
};

/// A random range-restricted temporal program plus database. With
/// `progressive_only` the result is progressive by construction (offsets of
/// body atoms <= head offset, no temporal-to-non-temporal feedback);
/// otherwise backward rules may occur, exercising the general evaluators.
std::string RandomProgramSource(const RandomProgramOptions& options,
                                std::mt19937* rng);

/// A random *time-only* program over nullary/unary temporal predicates with
/// entity-local rules — inside the exact I-period enumeration's scope.
std::string RandomTimeOnlySource(int num_preds, int num_rules, int max_delay,
                                 std::mt19937* rng);

}  // namespace chronolog::workload

#endif  // CHRONOLOG_WORKLOAD_GENERATORS_H_
