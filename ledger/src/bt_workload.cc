// Workload `bt`: algorithm BT (Figure 1) on a ground atom at a seeded depth
// h in [10^3, 10^5] over small programs — the paper's h axis (E1). Per-round
// fixed cost dominates and joins are tiny; spec, query and serve are
// bypassed (the specification is built once in set-up, for `range` and the
// oracle).
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>
#include <random>

#include "core/engine.h"
#include "eval/bt.h"
#include "query/query_parser.h"
#include "spans.h"
#include "util/metrics.h"
#include "workload/generators.h"
#include "workloads.h"

namespace ledger {
namespace {

using chronolog::TemporalDatabase;

// Log-spaced depths 10^3 .. 10^5, 27 per program, one seeded atom each
// (jittered around the depth). BT's cost is linear in h, so a program's
// ops sort by bucket, and its p50 and p90 fall inside one bucket's own
// samples (buckets 13 and 24) rather than on the gap between two.
constexpr int kBuckets = 27;

int64_t BucketDepth(int bucket) {
  return static_cast<int64_t>(
      std::llround(1e3 * std::pow(100.0, bucket / double(kBuckets - 1))));
}

struct Ask {
  chronolog::GroundAtom atom;
  int64_t h = 0;
  bool expected = false;
};

struct Program {
  std::string name;
  std::optional<TemporalDatabase> tdd;
  int64_t range = 0;                      // b + c + p of the spec
  std::vector<std::optional<Ask>> asks;   // [bucket]; empty if unparsed
};

/// `even(h)`, `plane(h, resortR)` over a 28-day two-resort schedule, and
/// `hit(h, a)` over a 64-row skewed join. Expected answers come from the
/// specification (and parity for `even`).
std::vector<Program> MakePrograms(uint64_t seed, Oracle* oracle) {
  std::mt19937 rng(static_cast<uint32_t>(seed * 40503u + 7));
  struct Def {
    const char* name;
    std::string source;
  };
  const Def defs[] = {
      {"even", chronolog::workload::EvenSource()},
      {"ski28", chronolog::workload::SkiScheduleSource(2, 28, 8, 2)},
      {"skew64", chronolog::workload::SkewedJoinSource(64)},
  };
  std::vector<Program> programs;
  for (const Def& def : defs) {
    Program p;
    p.name = def.name;
    oracle->Begin();  // set-up of one program, its atoms' checks included
    auto tdd = TemporalDatabase::FromSource(def.source);
    if (!tdd.ok()) {
      oracle->Fail(p.name + ": " + tdd.status().ToString());
      continue;
    }
    p.tdd.emplace(std::move(tdd.value()));
    auto spec = p.tdd->specification();
    if (!spec.ok()) {
      oracle->Fail(p.name + ": " + spec.status().ToString());
      continue;
    }
    p.range = spec.value()->num_representatives();
    p.asks.resize(kBuckets);
    for (int b = 0; b < kBuckets; ++b) {
      const int64_t base = BucketDepth(b);
      const int64_t h =
          base - base / 32 + static_cast<int64_t>(rng() % (base / 16 + 1));
      std::string text;
      if (p.name == "even") {
        text = "even(" + std::to_string(h) + ")";
      } else if (p.name == "ski28") {
        text = "plane(" + std::to_string(h) + ", resort" +
               std::to_string(rng() % 2) + ")";
      } else {
        text = "hit(" + std::to_string(h) + ", a)";
      }
      auto atom = chronolog::ParseGroundAtom(text, p.tdd->vocab());
      if (!atom.ok()) {
        oracle->Fail(text + ": " + atom.status().ToString());
        continue;
      }
      Ask ask{atom.value(), h, spec.value()->Ask(atom.value())};
      if (p.name == "even") {
        oracle->Check(ask.expected == (h % 2 == 0),
                      text + ": spec Ask vs parity");
      }
      p.asks[b] = ask;
    }
    programs.push_back(std::move(p));
  }
  return programs;
}

struct TracedTotals {
  EvalTotals eval;
  double m = 0;
  // [program][bucket] -> (wall ms, m) for the depth slope.
  std::vector<std::vector<std::pair<double, double>>> per_bucket;
};

/// Runs whole rounds (every program x bucket once) for `seconds`.
std::vector<double> Measure(std::vector<Program>& programs, double seconds,
                            Oracle* oracle, SpanLog* log,
                            LayerTable* table, TracedTotals* traced,
                            const std::function<void()>& after_round,
                            std::vector<std::vector<double>>* cell_ms = nullptr) {
  std::vector<double> latencies;
  uint64_t round = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      Program& p = programs[pi];
      for (int b = 0; b < kBuckets; ++b) {
        if (!p.asks[b].has_value()) continue;
        const Ask& ask = *p.asks[b];
        chronolog::BtOptions options;
        options.range = p.range;
        chronolog::MetricsRegistry reg;
        if (log != nullptr) options.metrics = &reg;
        oracle->Begin();
        const Clock::time_point t0 = Clock::now();
        std::optional<chronolog::Result<chronolog::BtResult>> bt;
        if (log == nullptr) {
          bt.emplace(chronolog::RunBt(p.tdd->program(), p.tdd->database(),
                                      ask.atom, options));
        } else {
          log->BeginOp(round);
          {
            ScopedSpan op(log, "op.bt");
            ScopedSpan s(log, "eval.bt");
            bt.emplace(chronolog::RunBt(p.tdd->program(), p.tdd->database(),
                                        ask.atom, options));
          }
          log->EndOp(table);
        }
        const double ms = MsSince(t0);
        latencies.push_back(ms);
        if (cell_ms != nullptr) (*cell_ms)[pi * kBuckets + b].push_back(ms);
        if (!bt->ok()) {
          oracle->Fail(p.name + ": " + bt->status().ToString());
          continue;
        }
        const chronolog::BtResult& r = bt->value();
        oracle->Check(r.answer == ask.expected,
                      p.name + " h=" + std::to_string(ask.h) +
                          ": BT vs spec Ask");
        if (traced != nullptr) {
          traced->eval.Add(r.stats, reg);
          traced->m += static_cast<double>(r.m);
          auto& cell = traced->per_bucket[pi][b];
          cell.first += ms;
          cell.second += static_cast<double>(r.m);
        }
      }
    }
    ++round;
    after_round();
  } while (MsSince(start) < seconds * 1e3);
  return latencies;
}

}  // namespace

Outcome RunBtWorkload(const RunConfig& config) {
  Outcome out;
  Oracle oracle(&out, config.inject_every);
  // Set-up (parse, spec for `range`, seeded atoms) takes under a
  // millisecond, so it is timed many times: five here and three more after
  // every measured round, so its median spans the same stretch of host time
  // as the op metrics.
  std::vector<double> setups;
  std::vector<Program> programs;
  auto time_setup = [&](std::vector<Program>* into, Oracle* checks) {
    const Clock::time_point t0 = Clock::now();
    *into = MakePrograms(config.seed, checks);
    setups.push_back(MsSince(t0) / 1e3);
  };
  time_setup(&programs, &oracle);
  const std::function<void()> setup_again = [&]() {
    for (int i = 0; i < 3; ++i) {
      std::vector<Program> discarded;
      Oracle quiet(&out, 0);
      time_setup(&discarded, &quiet);
    }
  };
  for (int i = 0; i < 4; ++i) {
    std::vector<Program> discarded;
    Oracle quiet(&out, 0);
    time_setup(&discarded, &quiet);
  }
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  if (!config.trace) {
    std::vector<std::vector<double>> cell_ms(programs.size() * kBuckets);
    const std::vector<double> lat =
        Measure(programs, config.seconds, &oracle, nullptr, nullptr,
                nullptr, setup_again, &cell_ms);
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      std::string line = "median op ms by depth bucket, " + programs[pi].name + ":";
      for (int b = 0; b < kBuckets; ++b) {
        char cell[48];
        std::snprintf(cell, sizeof(cell), " h~%lld=%.3f",
                      static_cast<long long>(BucketDepth(b)),
                      Median(cell_ms[pi * kBuckets + b]));
        line += cell;
      }
      out.notes.push_back(line);
    }
    out.Add("setup_s", Median(setups), "s");
    out.Add("ops_per_s", static_cast<double>(lat.size()) / (sum(lat) / 1e3),
            "1/s");
    std::vector<std::vector<double>> program_ms(programs.size());
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      for (int b = 0; b < kBuckets; ++b) {
        const std::vector<double>& cell = cell_ms[pi * kBuckets + b];
        program_ms[pi].insert(program_ms[pi].end(), cell.begin(), cell.end());
      }
    }
    std::vector<const std::vector<double>*> slots;
    for (const std::vector<double>& ms : program_ms) slots.push_back(&ms);
    AddGroupedLatencyMetrics(slots, "program", &out);
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }
  const std::vector<double> plain =
      Measure(programs, config.seconds / 2, &oracle, nullptr, nullptr,
              nullptr, setup_again);
  SpanLog log(Clock::now(), 1, /*keep_ops=*/48);
  LayerTable table;
  TracedTotals t;
  t.per_bucket.assign(programs.size(),
                      std::vector<std::pair<double, double>>(kBuckets));
  const std::vector<double> traced =
      Measure(programs, config.seconds / 2, &oracle, &log, &table, &t,
              setup_again);
  if (!config.trace_out.empty()) WriteChromeTrace(config.trace_out, {&log}, "bt", &out);
  const double n = static_cast<double>(traced.size());
  ReportLayerTable(table, sum(traced) / n, &out);
  out.Add("bench.trace_overhead",
          (n / sum(traced)) / (static_cast<double>(plain.size()) / sum(plain)),
          "ratio");
  // Thm 4.1: BT's cost is linear in h, so the cost per unit of the bound m
  // should not grow from the shallowest bucket to the deepest.
  double log_slope = 0;
  for (const auto& buckets : t.per_bucket) {
    const auto& lo = buckets.front();
    const auto& hi = buckets.back();
    log_slope += std::log((hi.first / hi.second) / (lo.first / lo.second));
  }
  out.Add("eval.bt_ms", table.span_ms_of("eval.bt") / n, "ms");
  out.Add("eval.bt_us_per_round", table.span_ms_of("eval.bt") * 1e3 / t.m,
          "us");
  out.Add("eval.bt_depth_slope",
          std::exp(log_slope / static_cast<double>(t.per_bucket.size())),
          "ratio");
  t.eval.Report(n, &out);
  AddUnreached(kSpecMetrics, &out);
  AddUnreached(kServeMetrics, &out);
  return out;
}

}  // namespace ledger
