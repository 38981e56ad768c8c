// ledger_bench — the chronolog benchmark program. One process runs one
// workload for a fixed time and prints, as its last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
//
//   ledger_bench --workload build|bt|serve --seed N --seconds S --trace 0|1
//                [--inject-wrong K] [--trace-out FILE] [--report FILE]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace ledger {
namespace {

/// Effective parallelism: the same fixed spin loop on one thread, then on
/// every online CPU at once; nproc * t1 / tn. A shared host whose
/// neighbours hold cores reads below nproc.
double SpinProbe(int nproc) {
  auto spin = []() {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 30'000'000; ++i) x = x + i;
  };
  // Best of three each: a probe is short, and one preempted pass would
  // read as a slow host.
  double one = 1e300, all = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    spin();
    one = std::min(one, MsSince(t0));
    const Clock::time_point t1 = Clock::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < nproc; ++i) threads.emplace_back(spin);
    for (std::thread& t : threads) t.join();
    all = std::min(all, MsSince(t1));
  }
  return nproc * one / all;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: ledger_bench --workload build|bt|serve --seed N "
               "--seconds S --trace 0|1 [--inject-wrong K] "
               "[--trace-out FILE] [--report FILE] [--commit SHA]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string report_path;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--inject-wrong") {
      config.inject_every = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--report") {
      report_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0) return Usage();
  // Timings from an unoptimised engine say nothing about a Release build.
  if (std::strcmp(LEDGER_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "ledger_bench: refusing to measure a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 LEDGER_BUILD_TYPE);
    return 3;
  }

  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  char host[256];
  std::snprintf(host, sizeof(host),
                "{\"nproc\":%d,\"effective_parallelism\":%.2f,\"commit\":%s,"
                "\"compiler\":%s,\"build_type\":%s}",
                nproc, SpinProbe(nproc), JsonString(commit).c_str(),
                JsonString(LEDGER_COMPILER).c_str(),
                JsonString(LEDGER_BUILD_TYPE).c_str());

  Outcome outcome;
  if (config.workload == "build") {
    outcome = RunBuildWorkload(config);
  } else if (config.workload == "bt") {
    outcome = RunBtWorkload(config);
  } else if (config.workload == "serve") {
    outcome = RunServeWorkload(config);
  } else {
    return Usage();
  }

  std::string metrics = "{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + FormatNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  metrics += "}";
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) +
      ", \"metrics\": " + metrics + "}";

  if (!report_path.empty()) {
    std::ofstream report(report_path);
    report << "{\"workload\": " << JsonString(config.workload)
           << ", \"seed\": " << config.seed << ", \"seconds\": "
           << FormatNumber(config.seconds)
           << ", \"trace\": " << (config.trace ? 1 : 0) << ", \"host\": "
           << host << ", \"notes\": [";
    for (std::size_t i = 0; i < outcome.notes.size(); ++i) {
      report << (i > 0 ? ", " : "") << JsonString(outcome.notes[i]);
    }
    report << "], \"result\": " << result << "}\n";
  }
  std::printf("host: %s\n", host);
  for (const std::string& note : outcome.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
