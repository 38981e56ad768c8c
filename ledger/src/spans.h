// Span recording for the traced run. The harness opens a span around each
// call it makes into a chronolog module; a span's layer is the prefix of its
// name before the first '.' (`ast`, `eval`, `spec`, `query`, `serve`,
// `core`; `op` is the harness's own root span per operation).
//
// One SpanLog per thread (no locking). Spans are kept with nanosecond
// resolution: the query layer's spans are a few microseconds long, below
// the engine TraceBuffer's microsecond grain. After each operation the log
// folds the op's spans into per-layer self times and per-name totals, keeps
// the first few ops' spans for the Chrome-trace export, and starts over.
#ifndef LEDGER_SPANS_H_
#define LEDGER_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace ledger {

struct Span {
  const char* name;  // string literal
  int64_t start_ns;  // offset from the log's epoch
  int64_t end_ns;
  int parent;        // index into the op's span list; -1 for the root
  uint64_t op;
};

/// Per-layer self time and per-span-name totals over the digested ops.
struct LayerTable {
  uint64_t ops = 0;
  std::map<std::string, double> self_ms;   // layer -> sum of self time
  std::map<std::string, double> span_ms;   // span name -> sum of durations

  void Merge(const LayerTable& other);
  /// Moves `ms` of self time from layer `from` to layer `to` (a share the
  /// engine's own phase timers attribute to a nested module).
  void Reassign(const std::string& from, const std::string& to, double ms);
  double span_ms_of(const std::string& name) const;
};

class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, int tid, std::size_t keep_ops)
      : epoch_(epoch), tid_(tid), keep_ops_(keep_ops) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Starts op `op`: the next span opened is its root.
  void BeginOp(uint64_t op) { op_ = op; }
  int Open(const char* name);
  void Close(int index);
  /// Folds the finished op into `table` (self time per layer, totals per
  /// span name; null skips this) and clears it for the next op.
  void EndOp(LayerTable* table);

  int tid() const { return tid_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  int tid_;
  std::size_t keep_ops_;
  std::size_t kept_ops_ = 0;
  uint64_t op_ = 0;
  std::vector<Span> spans_;  // current op, in open order
  std::vector<int> open_;    // stack of open span indices
  std::vector<Span> kept_;   // exported spans (parents re-based into kept_)
};

/// RAII span on a SpanLog; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Writes the kept spans of `logs` as Chrome trace-event JSON (the format of
/// chronolog's TraceBuffer::ToChromeTraceJson: complete "X" events with
/// microsecond ts/dur, loadable in Perfetto). Each event's args carry the
/// span id, its parent's id (-1 for an op root), the op id and the end time.
/// Notes a failure to write in `out`.
void WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      const std::string& workload, Outcome* out);

/// Renders the per-layer self-time table (mean ms per op) and checks that
/// the layers sum to `op_ms_measured` (the mean op latency the loop timed on
/// its own clock). Adds `self.<layer>_ms` metrics, `trace.op_ms` and
/// `trace.sum_error` (|sum - measured| / measured) to `out`.
void ReportLayerTable(const LayerTable& table, double op_ms_measured,
                      Outcome* out);

}  // namespace ledger

#endif  // LEDGER_SPANS_H_
