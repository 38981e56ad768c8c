#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ledger {

bool Oracle::Check(bool matched, const std::string& what) {
  ++checks_;
  if (inject_every_ > 0 && checks_ % static_cast<uint64_t>(inject_every_) == 0) {
    matched = !matched;
  }
  if (!matched) MarkFailed("mismatch: " + what);
  return matched;
}

void Oracle::Fail(const std::string& what) { MarkFailed("failed: " + what); }

void Oracle::MarkFailed(const std::string& what) {
  if (!op_failed_) ++outcome_->failed;
  op_failed_ = true;
  // The first few are enough to debug; a systematic fault would otherwise
  // flood the report.
  if (logged_++ < 5) outcome_->notes.push_back(what);
}

void EvalTotals::Add(const chronolog::EvalStats& stats,
                     chronolog::MetricsRegistry& registry) {
  derive_ms += stats.derive_ms;
  merge_ms += stats.merge_ms;
  extract_ms += stats.extract_ms;
  rounds += static_cast<double>(stats.iterations);
  derived += static_cast<double>(stats.derived);
  inserted += static_cast<double>(stats.inserted);
  match_steps += static_cast<double>(stats.match_steps);
  plans += static_cast<double>(registry.counter("join.plans")->value());
  plan_hits +=
      static_cast<double>(registry.counter("join.plan_cache_hits")->value());
  replans += static_cast<double>(registry.counter("join.replans")->value());
}

void EvalTotals::Report(double ops, Outcome* out) const {
  out->Add("eval.derive_ms", derive_ms / ops, "ms");
  out->Add("eval.merge_ms", merge_ms / ops, "ms");
  out->Add("eval.extract_ms", extract_ms / ops, "ms");
  out->Add("eval.rounds", rounds / ops, "count");
  out->Add("eval.insert_ratio", derived > 0 ? inserted / derived : 0, "ratio");
  out->Add("eval.match_steps_per_insert",
           inserted > 0 ? match_steps / inserted : 0, "ratio");
  out->Add("eval.plan_hit_ratio",
           plans + plan_hits > 0 ? plan_hits / (plans + plan_hits) : 0, "ratio");
  out->Add("eval.replans", replans / ops, "count");
}

const std::vector<LayerMetric> kSpecMetrics = {
    {"ast.parse_ms", "ms"},         {"spec.build_ms", "ms"},
    {"spec.detect_ms", "ms"},       {"spec.assemble_ms", "ms"},
    {"spec.doublings", "count"},    {"spec.verify_ms", "ms"},
    {"spec.horizon_ratio", "ratio"}, {"spec.exact_share", "ratio"},
    {"spec.b_facts", "count"},      {"spec.representatives", "count"},
    {"eval.forward_ms", "ms"},      {"eval.forward_steps", "count"}};

const std::vector<LayerMetric> kRoundMetrics = {
    {"eval.derive_ms", "ms"},          {"eval.merge_ms", "ms"},
    {"eval.extract_ms", "ms"},         {"eval.rounds", "count"},
    {"eval.insert_ratio", "ratio"},    {"eval.match_steps_per_insert", "ratio"},
    {"eval.plan_hit_ratio", "ratio"},  {"eval.replans", "count"}};

const std::vector<LayerMetric> kBtMetrics = {{"eval.bt_ms", "ms"},
                                             {"eval.bt_us_per_round", "us"},
                                             {"eval.bt_depth_slope", "ratio"}};

const std::vector<LayerMetric> kServeMetrics = {
    {"query.parse_us", "us"},
    {"query.eval_us", "us"},
    {"query.lookups_per_query", "count"},
    {"query.rewrite_steps_per_query", "count"},
    {"query.rows_per_query", "count"},
    {"core.ask_us", "us"},
    {"query.depth_ratio", "ratio"},
    {"serve.roundtrip_us.ask", "us"},
    {"serve.self_us.ask", "us"},
    {"serve.roundtrip_us.fo", "us"},
    {"serve.self_us.fo", "us"},
    {"serve.roundtrip_us.open", "us"},
    {"serve.self_us.open", "us"},
    {"serve.roundtrip_us.refused", "us"},
    {"serve.self_us.refused", "us"},
    {"serve.reuse_ratio", "ratio"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.scrape_ms", "ms"},
    {"serve.bytes_per_response", "bytes"}};

void AddUnreached(const std::vector<LayerMetric>& group, Outcome* out) {
  for (const LayerMetric& m : group) out->Add(m.name, 0, m.unit);
}

namespace {
constexpr double kMinUs = 0.1;
constexpr double kGrowth = 1.005;
constexpr std::size_t kBuckets = 4200;  // 0.1 us * 1.005^4200 ~ 130 s
}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

void LatencyHistogram::Add(double us) {
  const double index = us > kMinUs ? std::log(us / kMinUs) / std::log(kGrowth) : 0;
  ++counts_[std::min(static_cast<std::size_t>(index), kBuckets - 1)];
  ++count_;
  sum_us_ += us;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_us_ += other.sum_us_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    if (rank < static_cast<double>(below + counts_[i])) {
      const double frac = (rank - static_cast<double>(below) + 0.5) /
                          static_cast<double>(counts_[i]);
      return kMinUs * std::pow(kGrowth, static_cast<double>(i) + frac);
    }
    below += counts_[i];
  }
  return kMinUs * std::pow(kGrowth, static_cast<double>(kBuckets));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void AddGroupedLatencyMetrics(const std::vector<const std::vector<double>*>& slots,
                              const std::string& group_kind, Outcome* out) {
  double p50 = 0, p90 = 0;
  std::size_t fewest = slots.empty() ? 0 : slots.front()->size();
  for (const std::vector<double>* ms : slots) {
    p50 += Quantile(*ms, 0.5);
    p90 += Quantile(*ms, 0.9);
    fewest = std::min(fewest, ms->size());
  }
  const double n = static_cast<double>(std::max<std::size_t>(slots.size(), 1));
  out->Add("latency_p50_ms", p50 / n, "ms");
  out->Add("latency_p90_ms", p90 / n, "ms");
  out->notes.push_back("latency: each " + group_kind +
                       "'s own p50/p90, averaged over " +
                       std::to_string(slots.size()) + " slots; at least " +
                       std::to_string(fewest) + " samples per " + group_kind);
}

std::vector<int> FirstPrimes(int count) {
  std::vector<int> primes;
  for (int n = 2; static_cast<int>(primes.size()) < count; ++n) {
    bool prime = true;
    for (int p : primes) {
      if (n % p == 0) {
        prime = false;
        break;
      }
    }
    if (prime) primes.push_back(n);
  }
  return primes;
}

}  // namespace ledger
