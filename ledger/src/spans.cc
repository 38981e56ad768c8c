#include "spans.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace ledger {
namespace {

std::string LayerOf(const char* name) {
  std::string layer(name);
  const std::size_t dot = layer.find('.');
  if (dot != std::string::npos) layer.resize(dot);
  return layer == "op" ? "harness" : layer;
}

// Every layer the table reports, so each traced run names the same metrics
// whether or not its workload reaches a layer.
const char* const kLayers[] = {"ast",   "core",  "eval",   "spec",
                               "query", "serve", "harness"};

}  // namespace

void LayerTable::Merge(const LayerTable& other) {
  ops += other.ops;
  for (const auto& [k, v] : other.self_ms) self_ms[k] += v;
  for (const auto& [k, v] : other.span_ms) span_ms[k] += v;
}

void LayerTable::Reassign(const std::string& from, const std::string& to,
                          double ms) {
  self_ms[from] -= ms;
  self_ms[to] += ms;
}

double LayerTable::span_ms_of(const std::string& name) const {
  const auto it = span_ms.find(name);
  return it == span_ms.end() ? 0 : it->second;
}

int SpanLog::Open(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent, op_});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

void SpanLog::EndOp(LayerTable* table) {
  if (table != nullptr) {
    // Self time = own duration minus the children's: spans on one thread
    // nest strictly, so children never overlap each other.
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      table->self_ms[LayerOf(s.name)] +=
          dur_ms - static_cast<double>(child_ns[i]) / 1e6;
      table->span_ms[s.name] += dur_ms;
    }
    ++table->ops;
  }
  if (kept_ops_ < keep_ops_) {
    const int base = static_cast<int>(kept_.size());
    for (Span s : spans_) {
      if (s.parent >= 0) s.parent += base;
      kept_.push_back(s);
    }
    ++kept_ops_;
  }
  spans_.clear();
  open_.clear();
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      const std::string& workload, Outcome* outcome) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
      << workload << "\"},\"traceEvents\":["
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"ledger_bench\"}}";
  char buf[320];
  for (const SpanLog* log : logs) {
    // Span ids are unique across threads: thread id in the high bits.
    const int64_t id_base = static_cast<int64_t>(log->tid()) << 32;
    const std::vector<Span>& spans = log->kept();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t parent =
          s.parent < 0 ? -1 : id_base + static_cast<int64_t>(s.parent);
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"%s\",\"cat\":\"ledger\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%lld,\"parent\":%lld,\"op\":%llu,"
                    "\"end_us\":%.3f}}",
                    s.name, log->tid(), static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<long long>(id_base + static_cast<int64_t>(i)),
                    static_cast<long long>(parent),
                    static_cast<unsigned long long>(s.op),
                    static_cast<double>(s.end_ns) / 1e3);
      out << buf;
    }
  }
  out << "]}\n";
  if (!out) outcome->notes.push_back("could not write the trace to " + path);
}

void ReportLayerTable(const LayerTable& table, double op_ms_measured,
                      Outcome* out) {
  const double ops = table.ops > 0 ? static_cast<double>(table.ops) : 1;
  double sum = 0;
  std::string line = "self time per op (ms):";
  char cell[96];
  for (const char* layer : kLayers) {
    const auto it = table.self_ms.find(layer);
    const double ms = it == table.self_ms.end() ? 0 : it->second / ops;
    sum += ms;
    out->Add(std::string("self.") + layer + "_ms", ms, "ms");
    std::snprintf(cell, sizeof(cell), " %s=%.4f", layer, ms);
    line += cell;
  }
  const double error =
      op_ms_measured > 0 ? std::fabs(sum - op_ms_measured) / op_ms_measured
                         : 0;
  std::snprintf(cell, sizeof(cell), " | sum=%.4f op=%.4f (error %.2f%%)", sum,
                op_ms_measured, error * 100);
  line += cell;
  out->notes.push_back(line);
  if (error > 0.1) {
    out->notes.push_back("warning: layer self times do not sum to the op "
                         "latency within a tenth");
  }
  out->Add("trace.op_ms", op_ms_measured, "ms");
  out->Add("trace.sum_error", error, "ratio");
}

}  // namespace ledger
