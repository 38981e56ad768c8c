// Shared pieces of the ledger benchmark: run configuration, the result
// record every workload fills, sample statistics, and the oracle-failure
// bookkeeping.
#ifndef LEDGER_COMMON_H_
#define LEDGER_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/rule_eval.h"
#include "util/metrics.h"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: every oracle comparison sees a flipped expectation on
  /// one in `inject_every` checks (0 = off). Proves that a wrong answer
  /// raises `failed`.
  int inject_every = 0;
  /// Where the traced run writes its Chrome-trace JSON (empty = nowhere).
  std::string trace_out;
};

/// One metric of the result line: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports. `attempted`/`failed` count every operation
/// the run issued, oracle checks included; `metrics` are the workload's
/// end-to-end metrics (untraced run) or per-layer metrics (traced run).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line (sample counts,
  /// the per-layer self-time table, the first few oracle mismatches).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Oracle bookkeeping shared by the workloads. Every operation starts with
/// Begin() (counts it as attempted); any failed comparison or error inside
/// it counts the operation as failed, once, and is logged. The self-test's
/// injection flips one comparison in `inject_every`.
class Oracle {
 public:
  Oracle(Outcome* outcome, int inject_every)
      : outcome_(outcome), inject_every_(inject_every) {}

  void Begin() {
    ++outcome_->attempted;
    op_failed_ = false;
  }
  /// Records one comparison; `what` describes it for the mismatch log.
  /// Returns whether it (after any injected flip) matched.
  bool Check(bool matched, const std::string& what);
  /// Records that the current operation failed outright (error status, bad
  /// HTTP status).
  void Fail(const std::string& what);

 private:
  void MarkFailed(const std::string& what);

  Outcome* outcome_;
  int inject_every_;
  uint64_t checks_ = 0;
  bool op_failed_ = false;
  int logged_ = 0;
};

/// Fixed-memory latency histogram for the high-rate serve loop: log buckets
/// 0.5% wide from 0.1 us to ~100 s, so a long run's memory does not grow
/// with its request count (peak RSS is a metric). Quantiles interpolate
/// inside the bucket by rank.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  double sum_us() const { return sum_us_; }
  double Quantile(double q) const;  // us; 0 when empty

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_us_ = 0;
};

/// Evaluator counts summed over traced ops: the op's EvalStats plus the
/// join.* counters of the registry it ran with.
struct EvalTotals {
  double derive_ms = 0, merge_ms = 0, extract_ms = 0, rounds = 0;
  double derived = 0, inserted = 0, match_steps = 0;
  double plans = 0, plan_hits = 0, replans = 0;

  void Add(const chronolog::EvalStats& stats,
           chronolog::MetricsRegistry& registry);
  /// The eval.* metrics, per op over `ops` ops, and their ratios.
  void Report(double ops, Outcome* out) const;
};

/// Per-layer metrics (name, unit) that only some workloads reach, grouped
/// by what reaches them. A workload reports the groups it does not reach as
/// explicit zeros (AddUnreached), so every traced run names every metric
/// and run.py can refuse a result that lacks one.
struct LayerMetric {
  const char* name;
  const char* unit;
};
/// build: parse, spec assembly and the forward simulator.
extern const std::vector<LayerMetric> kSpecMetrics;
/// build and bt: the fixpoint rounds (EvalTotals::Report).
extern const std::vector<LayerMetric> kRoundMetrics;
/// bt: Algorithm BT.
extern const std::vector<LayerMetric> kBtMetrics;
/// serve: query answering and the HTTP layer.
extern const std::vector<LayerMetric> kServeMetrics;

/// Adds every metric of `group` with the value 0.
void AddUnreached(const std::vector<LayerMetric>& group, Outcome* out);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Formats `value` with enough digits to round-trip.
std::string FormatNumber(double value);

/// Appends the end-to-end latency metrics of a closed run, p50 and p90,
/// plus a note with the sample counts behind them. The ops fall into groups
/// (build families, bt programs) whose costs form separate clusters, and
/// hosts differ in their speed ratios between groups. A quantile of all ops
/// pooled sits inside one cluster on one host and on the gap between two on
/// another, where it jumps between runs. So each group's own quantile is
/// taken and the slots of a round average them: `slots` holds one group's
/// latencies (ms) per slot, and a group listed twice weighs twice.
void AddGroupedLatencyMetrics(const std::vector<const std::vector<double>*>& slots,
                              const std::string& group_kind, Outcome* out);

/// The first `count` primes (token-ring lengths).
std::vector<int> FirstPrimes(int count);

}  // namespace ledger

#endif  // LEDGER_COMMON_H_
