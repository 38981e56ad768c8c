#ifndef CHRONOLOG_UTIL_LOG_H_
#define CHRONOLOG_UTIL_LOG_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace chronolog {

/// chronolog_serve — leveled structured logging. One log call emits one
/// JSON line (the "JSON-lines" schema documented in docs/OBSERVABILITY.md):
///
///   {"ts_us":1722873600123456,"level":"info","event":"engine.spec_build",
///    "period_b":0,"period_p":2,"representatives":3,"wall_ms":0.42}
///
/// `ts_us` is wall-clock microseconds since the Unix epoch; `event` is a
/// dotted path naming the site (same convention as the metric names). All
/// remaining keys are event-specific fields added through the builder.
///
/// The process-wide threshold defaults to `warn` and is initialised once
/// from $CHRONOLOG_LOG_LEVEL (`debug|info|warn|error|off`) and can be
/// changed at run time with `SetGlobalLogLevel`. Lines go to
/// stderr unless a sink is injected with `SetLogSink` (tests capture lines
/// that way; injection and emission are thread-safe).

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// "debug"|"info"|"warn"|"error"|"off" (case-sensitive); nullopt otherwise.
std::optional<LogLevel> ParseLogLevel(std::string_view text);
/// Inverse of ParseLogLevel ("off" for kOff).
std::string_view LogLevelName(LogLevel level);

/// The process-wide threshold: events below it are dropped. Initialised on
/// first use from $CHRONOLOG_LOG_LEVEL, defaulting to kWarn.
LogLevel GlobalLogLevel();
void SetGlobalLogLevel(LogLevel level);

/// Replaces the line sink (called once per emitted line, without a trailing
/// newline). A null sink restores the default stderr writer. The sink may
/// be invoked concurrently from any logging thread, but calls are
/// serialised by the logger's internal mutex.
using LogSink = std::function<void(std::string_view line)>;
void SetLogSink(LogSink sink);

/// Builder for one structured event; emits its JSON line on destruction.
/// When the event's level is below the threshold the builder is inert —
/// no allocation, no field formatting, no clock read.
class LogEvent {
 public:
  /// Emitted when `level` reaches the process-wide level.
  LogEvent(LogLevel level, std::string_view event);
  ~LogEvent();

  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& Str(std::string_view key, std::string_view value);
  LogEvent& Int(std::string_view key, int64_t value);
  LogEvent& Uint(std::string_view key, uint64_t value);
  LogEvent& Num(std::string_view key, double value);
  LogEvent& Bool(std::string_view key, bool value);

 private:
  bool enabled_;
  std::string line_;
};

inline LogEvent LogDebug(std::string_view event) {
  return LogEvent(LogLevel::kDebug, event);
}
inline LogEvent LogInfo(std::string_view event) {
  return LogEvent(LogLevel::kInfo, event);
}
inline LogEvent LogWarn(std::string_view event) {
  return LogEvent(LogLevel::kWarn, event);
}
inline LogEvent LogError(std::string_view event) {
  return LogEvent(LogLevel::kError, event);
}

// JSON string escaping is shared with the rest of the tree — see
// chronolog::JsonEscape in util/string_util.h.

}  // namespace chronolog

#endif  // CHRONOLOG_UTIL_LOG_H_
