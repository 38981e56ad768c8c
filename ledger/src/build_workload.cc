// Workload `build`: one op is what DatabaseRegistry::Add does at
// registration — TemporalDatabase::FromSource + specification(). The mix is
// time-balanced between join-heavy families (path over random graphs,
// skewed join) and horizon-heavy ones (token rings over the first 4-5
// primes, one of them forced onto the verified-doubling detector; the
// full-year ski schedule on the exact forward path).
#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <random>

#include "ast/parser.h"
#include "core/engine.h"
#include "eval/bt.h"
#include "query/query_parser.h"
#include "spans.h"
#include "spec/period.h"
#include "spec/specification.h"
#include "util/metrics.h"
#include "workload/generators.h"
#include "workloads.h"

namespace ledger {
namespace {

using chronolog::MetricsRegistry;
using chronolog::RelationalSpecification;
using chronolog::TemporalDatabase;

/// One generated input: a program source plus the oracle's expectations.
struct Variant {
  std::string family;
  bool join_heavy = false;
  std::string source;
  int64_t expected_p = 0;  // analytic minimal period
  std::vector<std::string> atoms;
  std::vector<int> analytic;  // per atom: 1 yes, 0 no, -1 no closed form
  bool naive_checkable = true;  // atoms[0] is shallow enough for naive BT
};

// Every op takes its family's next variant, so a run averages over two dozen
// graphs per path size rather than riding on a few draws.
constexpr int kVariantsPerFamily = 24;

int64_t Lcm(const std::vector<int>& xs) {
  int64_t l = 1;
  for (int x : xs) l = std::lcm(l, static_cast<int64_t>(x));
  return l;
}

/// `tok(h, rI_J)` holds iff h = J (mod |ring I|): ring I's token starts on
/// node 0 and advances one node per step.
void AddRingAtoms(const std::vector<int>& rings, std::mt19937* rng,
                  Variant* v) {
  for (int k = 0; k < 3; ++k) {
    const int ring = static_cast<int>((*rng)() % rings.size());
    const int node = static_cast<int>((*rng)() % rings[ring]);
    const int64_t h = (*rng)() % (k == 0 ? 100 : 3000);
    v->atoms.push_back("tok(" + std::to_string(h) + ", r" +
                       std::to_string(ring) + "_" + std::to_string(node) +
                       ")");
    v->analytic.push_back(h % rings[ring] == node ? 1 : 0);
  }
}

Variant MakeVariant(const std::string& family, std::mt19937* rng) {
  Variant v;
  v.family = family;
  if (family.rfind("path", 0) == 0) {
    // BM_SpecPath's shape: n edges over n/2 nodes.
    const int n = std::stoi(family.substr(4));
    const int nodes = n / 2;
    v.join_heavy = true;
    v.source = chronolog::workload::PathProgramSource() +
               chronolog::workload::RandomGraphFactsSource(nodes, n, rng);
    v.expected_p = 1;  // inflationary: the model stops changing
    for (int k = 0; k < 3; ++k) {
      v.atoms.push_back("path(" + std::to_string((*rng)() % 16) + ", n" +
                        std::to_string((*rng)() % nodes) + ", n" +
                        std::to_string((*rng)() % nodes) + ")");
      v.analytic.push_back(-1);
    }
  } else if (family == "skew") {
    v.join_heavy = true;
    v.source = chronolog::workload::SkewedJoinSource(
        3000 + static_cast<int>((*rng)() % 2000));
    v.expected_p = 1;
    for (int k = 0; k < 3; ++k) {
      v.atoms.push_back("hit(" + std::to_string((*rng)() % (k == 0 ? 100 : 3000)) +
                        ", a)");
      v.analytic.push_back(1);
    }
  } else if (family.rfind("ring", 0) == 0) {
    const bool five = family.rfind("ring2310", 0) == 0;
    const std::vector<int> rings = FirstPrimes(five ? 5 : 4);
    v.source = chronolog::workload::TokenRingSource(rings);
    v.expected_p = Lcm(rings);
    AddRingAtoms(rings, rng, &v);
    // lcm 2310 makes the naive fixpoint (O(m^2) passes) take tens of
    // seconds; the closed form above is its oracle instead.
    v.naive_checkable = !five;
    if (family.find("seen") != std::string::npos) {
      // A non-temporal head over a temporal body: not progressive, so
      // detection takes the verified-doubling path. Every node is seen.
      v.source += "seen(X) :- tok(T, X).\n";
      v.atoms.back() = "seen(r" + std::to_string(rings.size() - 1) + "_" +
                       std::to_string((*rng)() % rings.back()) + ")";
      v.analytic.back() = 1;
    }
  } else if (family == "ski365") {
    const int resorts = 1 + static_cast<int>((*rng)() % 4);
    v.source = chronolog::workload::SkiScheduleSource(resorts, 365, 91, 13);
    v.expected_p = 365;  // the season predicates' year
    for (int k = 0; k < 3; ++k) {
      v.atoms.push_back("plane(" + std::to_string((*rng)() % (k == 0 ? 100 : 3000)) +
                        ", resort" + std::to_string((*rng)() % resorts) + ")");
      v.analytic.push_back(-1);
    }
  }
  return v;
}

/// One round: 20 ops, every family at least once. The repeats balance the
/// time between join-heavy and horizon-heavy families (about 48/52 on the
/// reference host).
const std::vector<std::string>& RoundFamilies() {
  static const std::vector<std::string> kRound = {
      "ring210",      "ski365",       "ring2310",     "skew",
      "ring210seen",  "path96",       "path96",       "path96",
      "path128",      "path128",      "path128",      "path192",
      "path192",      "path256",      "path256",      "path256",
      "ring2310seen", "ring2310seen", "ring2310seen", "ring2310seen"};
  return kRound;
}

struct Inputs {
  std::map<std::string, std::vector<Variant>> variants;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs inputs;
  std::mt19937 rng(static_cast<uint32_t>(seed * 2654435761u + 17));
  for (const std::string& family : RoundFamilies()) {
    for (int i = 0; i < kVariantsPerFamily; ++i) {
      inputs.variants[family].push_back(MakeVariant(family, &rng));
    }
  }
  return inputs;
}

/// Per-variant oracle memory: the spec's size and its Ask answers from the
/// first build, re-checked on every rebuild and, after the loop, against
/// the Figure 1 naive BT.
struct Remembered {
  int64_t representatives = 0;
  std::vector<bool> answers;
};

/// Per-op traced numbers, averaged over the traced half.
struct TracedTotals {
  EvalTotals eval;
  double detect_ms = 0, forward_ms = 0, verify_ms = 0, forward_steps = 0;
  double doublings = 0;
  double horizon_ratio = 0, exact = 0, b_facts = 0, representatives = 0;
};

double HistSumMs(MetricsRegistry& reg, const char* name) {
  return reg.has_histogram(name)
             ? static_cast<double>(reg.histogram(name)->sum()) / 1e6
             : 0;
}

double CounterValue(MetricsRegistry& reg, const char* name) {
  return static_cast<double>(reg.counter(name)->value());
}

class BuildRun {
 public:
  BuildRun(const RunConfig& config, Outcome* out)
      : config_(config), out_(out), oracle_(out, config.inject_every) {}

  /// Set-up is input generation. It is timed five times here and once
  /// more after every measured round (the extra copies are discarded), so
  /// its median spans the same stretch of host time as the op metrics.
  void SetUp() {
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      inputs_ = MakeInputs(config_.seed);
      setups_.push_back(MsSince(t0) / 1e3);
    }
  }

  /// Runs whole rounds for `seconds`. Returns op latencies (ms).
  std::vector<double> Measure(double seconds, SpanLog* log,
                              LayerTable* table, TracedTotals* traced) {
    std::vector<double> latencies;
    const Clock::time_point start = Clock::now();
    do {
      for (const std::string& family : RoundFamilies()) {
        const std::vector<Variant>& pool = inputs_.variants[family];
        const Variant& v = pool[next_variant_[family]++ % pool.size()];
        oracle_.Begin();
        std::optional<RelationalSpecification> traced_spec;
        const RelationalSpecification* spec = nullptr;
        std::optional<TemporalDatabase> tdd;
        const Clock::time_point t0 = Clock::now();
        if (log == nullptr) {
          auto built = TemporalDatabase::FromSource(v.source);
          if (built.ok()) {
            tdd.emplace(std::move(built.value()));
            auto s = tdd->specification();
            if (s.ok()) spec = s.value();
          }
        } else {
          traced_spec = TracedOp(v, log, table, traced, &tdd);
          if (traced_spec.has_value()) spec = &*traced_spec;
        }
        const double ms = MsSince(t0);
        latencies.push_back(ms);
        family_ms_[family].push_back(ms);
        if (spec == nullptr) {
          oracle_.Fail(family + ": build failed");
          continue;
        }
        CheckOp(v, *tdd, *spec);
      }
      ++round_;
      const Clock::time_point t0 = Clock::now();
      const Inputs again = MakeInputs(config_.seed);
      setups_.push_back(MsSince(t0) / 1e3);
    } while (MsSince(start) < seconds * 1e3);
    return latencies;
  }

  /// After the loop: the Figure 1 naive BT on each family's first variant.
  void NaiveBtCheck() {
    for (const auto& [family, variants] : inputs_.variants) {
      const Variant& v = variants.front();
      const auto it = remembered_.find(&v);
      if (!v.naive_checkable || it == remembered_.end()) continue;
      oracle_.Begin();
      auto tdd = TemporalDatabase::FromSource(v.source);
      if (!tdd.ok()) {
        oracle_.Fail(family + ": reparse failed");
        continue;
      }
      // atoms[0] is the shallow one: naive BT costs O(m^2) passes.
      const std::string& text = v.atoms[0];
      auto atom = chronolog::ParseGroundAtom(text, tdd->vocab());
      if (!atom.ok()) {
        oracle_.Fail(text + ": " + atom.status().ToString());
        continue;
      }
      chronolog::BtOptions options;
      options.range = it->second.representatives;
      options.semi_naive = false;
      auto bt = chronolog::RunBt(tdd->program(), tdd->database(),
                                 atom.value(), options);
      if (!bt.ok()) {
        oracle_.Fail(text + ": naive BT " + bt.status().ToString());
        continue;
      }
      oracle_.Check(bt->answer == it->second.answers[0],
                    family + " " + text + ": spec Ask vs naive BT");
    }
  }

  void ReportFamilies() {
    std::string line = "mean op ms by family:";
    double join = 0, horizon = 0;
    char cell[64];
    for (const auto& [family, ms] : family_ms_) {
      const double sum = std::accumulate(ms.begin(), ms.end(), 0.0);
      std::snprintf(cell, sizeof(cell), " %s=%.2f", family.c_str(),
                    sum / static_cast<double>(ms.size()));
      line += cell;
      (inputs_.variants[family].front().join_heavy ? join : horizon) += sum;
    }
    out_->notes.push_back(line);
    std::snprintf(cell, sizeof(cell),
                  "time share join-heavy/horizon-heavy: %.0f%%/%.0f%%",
                  100 * join / (join + horizon), 100 * horizon / (join + horizon));
    out_->notes.push_back(cell);
  }

  void AddLatencyMetrics() {
    std::vector<const std::vector<double>*> slots;
    for (const std::string& family : RoundFamilies()) {
      slots.push_back(&family_ms_[family]);
    }
    AddGroupedLatencyMetrics(slots, "family", out_);
  }

  double setup_s() const { return Median(setups_); }

 private:
  /// The traced op: the module calls TemporalDatabase makes, each under its
  /// own span — parse (ast), wrap (core) and BuildSpecification (spec), the
  /// call specification() makes, with the engine's default period options
  /// and a SpecificationBuildInfo (so the plan export runs as well). A
  /// registry on the options collects the engine's own phase timers.
  std::optional<RelationalSpecification> TracedOp(
      const Variant& v, SpanLog* log, LayerTable* table,
      TracedTotals* traced, std::optional<TemporalDatabase>* tdd) {
    MetricsRegistry reg;
    chronolog::PeriodDetectionOptions options = chronolog::EngineOptions{}.period;
    options.metrics = &reg;
    chronolog::SpecificationBuildInfo info;
    std::optional<RelationalSpecification> spec;
    log->BeginOp(round_);
    {
      ScopedSpan op(log, "op.build");
      std::optional<chronolog::ParsedUnit> unit;
      {
        ScopedSpan s(log, "ast.parse");
        auto parsed = chronolog::Parser::Parse(v.source);
        if (parsed.ok()) unit.emplace(std::move(parsed.value()));
      }
      if (!unit.has_value()) {
        log->EndOp(table);
        return spec;
      }
      {
        ScopedSpan s(log, "core.wrap");
        auto wrapped = TemporalDatabase::FromParsedUnit(std::move(*unit));
        if (wrapped.ok()) tdd->emplace(std::move(wrapped.value()));
      }
      if (!tdd->has_value()) {
        log->EndOp(table);
        return spec;
      }
      ScopedSpan s(log, "spec.build");
      auto built = chronolog::BuildSpecification(
          (*tdd)->program(), (*tdd)->database(), options, &info);
      if (built.ok()) spec.emplace(std::move(built.value()));
    }
    log->EndOp(table);
    if (!spec.has_value()) return spec;
    // The engine's phase timers split the build. Detection is the doubling
    // loop (period.*) or the forward simulation (forward.*); the rest of
    // spec.build is assembly. Within detection, the evaluator's share is
    // the fixpoint rounds (nested in period.extend) or the forward
    // timesteps, and it moves from the spec layer to eval.
    const double forward_ms = HistSumMs(reg, "forward.timestep_ns");
    const double eval_ms = HistSumMs(reg, "fixpoint.round.derive_ns") +
                           HistSumMs(reg, "fixpoint.round.merge_ns") +
                           forward_ms;
    table->Reassign("spec", "eval", eval_ms);
    traced->detect_ms += HistSumMs(reg, "period.extend_ns") +
                         HistSumMs(reg, "period.update_ns") +
                         HistSumMs(reg, "period.find_ns") +
                         HistSumMs(reg, "period.verify_ns") + forward_ms +
                         HistSumMs(reg, "forward.detect_ns");
    traced->eval.Add(info.stats, reg);
    traced->forward_ms += forward_ms;
    traced->verify_ms += HistSumMs(reg, "period.verify_ns");
    traced->forward_steps += CounterValue(reg, "forward.timesteps");
    traced->doublings += CounterValue(reg, "period.doublings");
    traced->horizon_ratio += static_cast<double>(info.detection_horizon) /
                             static_cast<double>(spec->num_representatives());
    traced->exact += info.exact_period ? 1 : 0;
    traced->b_facts += static_cast<double>(spec->SizeInFacts());
    traced->representatives += static_cast<double>(spec->num_representatives());
    return spec;
  }

  void CheckOp(const Variant& v, TemporalDatabase& tdd,
               const RelationalSpecification& spec) {
    bool ok = oracle_.Check(spec.period().p == v.expected_p,
                            v.family + ": p = " +
                                std::to_string(spec.period().p) +
                                ", analytic " + std::to_string(v.expected_p));
    std::vector<bool> answers;
    for (std::size_t i = 0; i < v.atoms.size(); ++i) {
      auto atom = chronolog::ParseGroundAtom(v.atoms[i], tdd.vocab());
      if (!atom.ok()) {
        oracle_.Fail(v.atoms[i] + ": " + atom.status().ToString());
        return;
      }
      const bool yes = spec.Ask(atom.value());
      answers.push_back(yes);
      if (v.analytic[i] >= 0) {
        ok = oracle_.Check(yes == (v.analytic[i] == 1),
                           v.family + " " + v.atoms[i] + ": spec Ask vs "
                           "closed form") && ok;
      }
    }
    auto [it, fresh] = remembered_.try_emplace(&v);
    if (fresh) {
      it->second.representatives = spec.num_representatives();
      it->second.answers = answers;
    } else if (ok) {
      oracle_.Check(it->second.answers == answers &&
                        it->second.representatives ==
                            spec.num_representatives(),
                    v.family + ": rebuild disagrees with the first build");
    }
  }

  const RunConfig& config_;
  Outcome* out_;
  Oracle oracle_;
  Inputs inputs_;
  std::vector<double> setups_;
  uint64_t round_ = 0;
  std::map<const Variant*, Remembered> remembered_;
  std::map<std::string, std::size_t> next_variant_;
  std::map<std::string, std::vector<double>> family_ms_;
};

}  // namespace

Outcome RunBuildWorkload(const RunConfig& config) {
  Outcome out;
  BuildRun run(config, &out);
  run.SetUp();
  if (!config.trace) {
    const std::vector<double> latencies =
        run.Measure(config.seconds, nullptr, nullptr, nullptr);
    const double busy_s =
        std::accumulate(latencies.begin(), latencies.end(), 0.0) / 1e3;
    const double rss = PeakRssMb();
    run.NaiveBtCheck();
    run.ReportFamilies();
    out.Add("setup_s", run.setup_s(), "s");
    out.Add("ops_per_s", static_cast<double>(latencies.size()) / busy_s,
            "1/s");
    run.AddLatencyMetrics();
    out.Add("peak_rss_mb", rss, "MiB");
    return out;
  }
  // Traced run: an untraced half for the overhead baseline, then the
  // traced half that feeds the per-layer metrics.
  const std::vector<double> plain =
      run.Measure(config.seconds / 2, nullptr, nullptr, nullptr);
  const double plain_ops_per_s =
      static_cast<double>(plain.size()) /
      (std::accumulate(plain.begin(), plain.end(), 0.0) / 1e3);
  SpanLog log(Clock::now(), 1, /*keep_ops=*/18);
  LayerTable table;
  TracedTotals t;
  const std::vector<double> traced =
      run.Measure(config.seconds / 2, &log, &table, &t);
  run.NaiveBtCheck();
  const double n = static_cast<double>(traced.size());
  const double traced_ms = std::accumulate(traced.begin(), traced.end(), 0.0);
  if (!config.trace_out.empty()) WriteChromeTrace(config.trace_out, {&log}, "build", &out);
  ReportLayerTable(table, traced_ms / n, &out);
  out.Add("bench.trace_overhead", (n / (traced_ms / 1e3)) / plain_ops_per_s,
          "ratio");
  out.Add("ast.parse_ms", table.span_ms_of("ast.parse") / n, "ms");
  out.Add("spec.build_ms", table.span_ms_of("spec.build") / n, "ms");
  out.Add("spec.detect_ms", t.detect_ms / n, "ms");
  out.Add("spec.assemble_ms", (table.span_ms_of("spec.build") - t.detect_ms) / n,
          "ms");
  out.Add("spec.doublings", t.doublings / n, "count");
  out.Add("spec.verify_ms", t.verify_ms / n, "ms");
  out.Add("spec.horizon_ratio", t.horizon_ratio / n, "ratio");
  out.Add("spec.exact_share", t.exact / n, "ratio");
  out.Add("spec.b_facts", t.b_facts / n, "count");
  out.Add("spec.representatives", t.representatives / n, "count");
  t.eval.Report(n, &out);
  out.Add("eval.forward_ms", t.forward_ms / n, "ms");
  out.Add("eval.forward_steps", t.forward_steps / n, "count");
  AddUnreached(kBtMetrics, &out);
  AddUnreached(kServeMetrics, &out);
  return out;
}

}  // namespace ledger
