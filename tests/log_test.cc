// chronolog_serve structured logging: level parsing, the process-wide
// threshold, sink injection, the JSON-lines schema and its escaping.

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/log.h"

namespace chronolog {
namespace {

/// Captures emitted lines for the duration of a test and restores the
/// stderr sink + prior global level on destruction.
class LogCapture {
 public:
  LogCapture() : saved_level_(GlobalLogLevel()) {
    SetLogSink([this](std::string_view line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.emplace_back(line);
    });
  }
  ~LogCapture() {
    SetLogSink(nullptr);
    SetGlobalLogLevel(saved_level_);
  }

  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  LogLevel saved_level_;
  std::mutex mu_;
  std::vector<std::string> lines_;
};

TEST(LogTest, ParseLogLevelRoundTrips) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    auto parsed = ParseLogLevel(LogLevelName(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(ParseLogLevel("verbose").has_value());
  EXPECT_FALSE(ParseLogLevel("").has_value());
}

TEST(LogTest, EmitsJsonLineWithAllFieldKinds) {
  LogCapture capture;
  SetGlobalLogLevel(LogLevel::kInfo);
  LogInfo("test.event")
      .Str("name", "value")
      .Int("negative", -3)
      .Uint("big", 42)
      .Num("ratio", 0.5)
      .Bool("flag", true);
  const auto lines = capture.lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"ts_us\":"), std::string::npos);
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"test.event\""), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"value\""), std::string::npos);
  EXPECT_NE(line.find("\"negative\":-3"), std::string::npos);
  EXPECT_NE(line.find("\"big\":42"), std::string::npos);
  EXPECT_NE(line.find("\"ratio\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"flag\":true"), std::string::npos);
}

TEST(LogTest, ThresholdFiltersLowerLevels) {
  LogCapture capture;
  SetGlobalLogLevel(LogLevel::kWarn);
  LogDebug("dropped.debug").Str("k", "v");
  LogInfo("dropped.info");
  LogWarn("kept.warn");
  LogError("kept.error");
  const auto lines = capture.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("kept.warn"), std::string::npos);
  EXPECT_NE(lines[1].find("kept.error"), std::string::npos);
}

TEST(LogTest, OffSilencesEverything) {
  LogCapture capture;
  SetGlobalLogLevel(LogLevel::kOff);
  LogError("never.emitted");
  EXPECT_TRUE(capture.lines().empty());
}

TEST(LogTest, EscapesStringsForJson) {
  LogCapture capture;
  SetGlobalLogLevel(LogLevel::kInfo);
  LogInfo("test.escape").Str("path", "a\"b\\c\nd\te");
  const auto lines = capture.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
}

TEST(LogTest, ConcurrentEmittersProduceWholeLines) {
  LogCapture capture;
  SetGlobalLogLevel(LogLevel::kInfo);
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      for (int j = 0; j < kEventsPerThread; ++j) {
        LogInfo("parallel.event").Int("thread", i).Int("seq", j);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto lines = capture.lines();
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads * kEventsPerThread));
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"event\":\"parallel.event\""), std::string::npos);
  }
}

}  // namespace
}  // namespace chronolog
