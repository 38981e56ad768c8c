#include "serve/statements.h"

#include <algorithm>
#include <functional>

#include "util/string_util.h"

namespace chronolog {

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

StatementStats::Shard& StatementStats::ShardFor(std::string_view shape) {
  return shards_[std::hash<std::string_view>{}(shape) % kNumShards];
}

StatementStats::Entry* StatementStats::GetOrCreate(std::string_view shape) {
  Shard& shard = ShardFor(shape);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.live.find(shape);
  if (it == shard.live.end()) {
    auto entry = std::make_unique<Entry>(std::string(shape));
    // The map key views the entry's own shape string, whose storage is
    // stable behind the unique_ptr.
    std::string_view key = entry->shape;
    it = shard.live.emplace(key, std::move(entry)).first;
  }
  return it->second.get();
}

void StatementStats::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [key, entry] : shard.live) {
      shard.retired.push_back(std::move(entry));
    }
    shard.live.clear();
  }
}

uint64_t StatementStats::TotalCalls() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.live) {
      total += entry->calls.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::string StatementStats::ToJson() const {
  // Snapshot the live entry pointers, each with its eval-time total read
  // once, shard by shard; entries are stable, so the sort and render below
  // run without any lock held. Writers keep bumping the live totals, so the
  // sort must compare the snapshot: a comparator reading live atomics is
  // inconsistent, and std::sort may then run off the end of the array.
  struct Row {
    uint64_t eval_sum;
    const Entry* entry;
  };
  std::vector<Row> snapshot;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.live) {
      snapshot.push_back({entry->eval_ns.sum(), entry.get()});
    }
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const Row& a, const Row& b) {
              if (a.eval_sum != b.eval_sum) return a.eval_sum > b.eval_sum;
              return a.entry->shape < b.entry->shape;
            });
  std::string out = "{\"statements\":[";
  bool first = true;
  for (const auto& [eval_sum, e] : snapshot) {
    if (!first) out += ",";
    first = false;
    out += "{\"shape\":\"" + JsonEscape(e->shape) + "\"";
    out += ",\"calls\":" +
           std::to_string(e->calls.load(std::memory_order_relaxed));
    out += ",\"rows\":" +
           std::to_string(e->rows.load(std::memory_order_relaxed));
    out += ",\"partial\":" +
           std::to_string(e->partial.load(std::memory_order_relaxed));
    out += ",\"truncated\":" +
           std::to_string(e->truncated.load(std::memory_order_relaxed));
    out += ",\"oracle_lookups\":" +
           std::to_string(e->oracle_lookups.load(std::memory_order_relaxed));
    out += ",\"rewrite_steps\":" +
           std::to_string(e->rewrite_steps.load(std::memory_order_relaxed));
    out += ",\"parse_ns\":" +
           std::to_string(e->parse_ns.load(std::memory_order_relaxed));
    out += ",\"eval_ns\":{\"count\":" + std::to_string(e->eval_ns.count()) +
           ",\"sum\":" + std::to_string(eval_sum) +
           ",\"min\":" + std::to_string(e->eval_ns.min()) +
           ",\"max\":" + std::to_string(e->eval_ns.max()) +
           ",\"mean\":" + JsonNumber(e->eval_ns.mean()) +
           ",\"p50\":" + JsonNumber(e->eval_ns.Quantile(0.50)) +
           ",\"p90\":" + JsonNumber(e->eval_ns.Quantile(0.90)) +
           ",\"p99\":" + JsonNumber(e->eval_ns.Quantile(0.99)) + "}}";
  }
  out += "]}";
  return out;
}

}  // namespace chronolog
