// Workload `serve`: a closed loop of two callers, each on one kept-alive
// connection, against an in-process HttpServer (two workers, default
// QueryServiceOptions, statements on) serving four registered databases.
// Caller 0 also scrapes GET /statements and GET /metrics about once a
// second, reading the statement store beside the writers.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "core/engine.h"
#include "http_client.h"
#include "query/answers.h"
#include "query/query_shape.h"
#include "serve/http_server.h"
#include "serve/obs_endpoints.h"
#include "serve/query_endpoints.h"
#include "serve/registry.h"
#include "spans.h"
#include "util/json.h"
#include "util/metrics.h"
#include "workload/generators.h"
#include "workloads.h"

namespace ledger {
namespace {

using chronolog::DatabaseRegistry;
using chronolog::HttpServer;
using chronolog::TemporalDatabase;

enum Class { kAsk, kFo, kOpen, kRefused, kNumClasses };
const char* const kClassNames[kNumClasses] = {"ask", "fo", "open", "refused"};

constexpr int kClients = 2;   // one kept-alive connection each
constexpr int kWorkers = 2;   // a kept-alive connection pins a worker
constexpr int kOpenMaxRows = 128;
// The row cap POST /query applies when a request sends no max_rows.
const uint64_t kServiceMaxRows =
    chronolog::QueryServiceOptions{}.default_max_rows;
constexpr int kPoolSize = 4096;

struct Database {
  const char* name;
  std::string source;
};

/// `tick` mod 128, the two-resort full-year ski schedule, token ring k = 4
/// (p = 210) and path over a 32-node, 64-edge random graph (n = 64). The
/// databases are the same for every seed: the graph is drawn from a fixed
/// seed (BM_SpecPath's), because a seeded graph changed the server's
/// per-request cost by more than the run-to-run noise. The run's seed picks
/// the request stream.
std::vector<Database> MakeDatabases() {
  std::mt19937 graph_rng(777);
  return {
      {"tick", "tick(0).\ntick(T+128) :- tick(T).\n"},
      {"ski", chronolog::workload::SkiScheduleSource(2, 365, 91, 13)},
      {"ring", chronolog::workload::TokenRingSource({2, 3, 5, 7})},
      {"path", chronolog::workload::PathProgramSource() +
                   chronolog::workload::RandomGraphFactsSource(32, 64, &graph_rng)},
  };
}

struct Request {
  Class cls = kAsk;
  std::string db;
  std::string query;
  std::string body;      // the POST /query document
  int expect_status = 200;
  std::string expect_suffix;  // the answer document the server must end with
  uint64_t max_rows = 0;      // 0 = service default
};

/// Depth ladder for ground asks: 10^3 .. 10^9, one decade per step, with
/// seeded jitter inside the decade.
int64_t AskDepth(std::mt19937* rng) {
  const int decade = 3 + static_cast<int>((*rng)() % 7);
  const double base = std::pow(10.0, decade);
  return static_cast<int64_t>(base * (1 + ((*rng)() % 9000) / 1000.0));
}

/// A seeded request of class `cls`. `analytic` receives the closed-form
/// answer of a ground ask when there is one (1 yes, 0 no, -1 none).
Request MakeRequest(Class cls, int db, std::mt19937* rng, int* analytic) {
  static const char* const kDbs[] = {"tick", "ski", "ring", "path"};
  static const int kRings[] = {2, 3, 5, 7};
  Request r;
  r.cls = cls;
  r.db = kDbs[db];
  *analytic = -1;
  auto n = [rng](int mod) { return std::to_string((*rng)() % mod); };
  switch (cls) {
    case kAsk: {
      int64_t h = AskDepth(rng);
      if (r.db == "tick") {
        if ((*rng)() % 2 == 0) h -= h % 128;  // half of them land on a tick
        r.query = "tick(" + std::to_string(h) + ")";
        *analytic = h % 128 == 0 ? 1 : 0;
      } else if (r.db == "ring") {
        const int ring = static_cast<int>((*rng)() % 4);
        const int node = static_cast<int>((*rng)() % kRings[ring]);
        r.query = "tok(" + std::to_string(h) + ", r" + std::to_string(ring) +
                  "_" + std::to_string(node) + ")";
        *analytic = h % kRings[ring] == node ? 1 : 0;
      } else if (r.db == "ski") {
        r.query = "plane(" + std::to_string(h) + ", resort" + n(2) + ")";
      } else {
        r.query = "path(" + std::to_string(h) + ", n" + n(32) + ", n" + n(32) +
                  ")";
      }
      break;
    }
    case kFo:
      if (r.db == "tick") {
        r.query = "exists T (tick(T) & ~tick(T+" + std::to_string(1 + (*rng)() % 200) + "))";
      } else if (r.db == "ring") {
        r.query = "exists T (tok(T, r2_" + n(5) + ") & tok(T, r3_" + n(7) + "))";
      } else if (r.db == "ski") {
        r.query = "exists T (plane(T, resort" + n(2) + ") & ~winter(T) & holiday(T+" + n(30) + "))";
      } else {
        r.query = "forall K (path(K, n" + n(32) + ", n" + n(32) + ") | ~path(K+1, n" + n(32) + ", n" + n(32) + "))";
      }
      break;
    case kOpen:
      r.max_rows = kOpenMaxRows;
      if (r.db == "tick") {
        r.query = "~tick(T+" + n(128) + ")";
      } else if (r.db == "ring") {
        r.query = "tok(T, r" + n(4) + "_" + n(2) + ")";
      } else if (r.db == "ski") {
        r.query = "plane(T, resort" + n(2) + ") & holiday(T)";
      } else {
        r.query = "path(" + n(12) + ", n" + n(32) + ", Y)";
      }
      break;
    default:
      if ((*rng)() % 2 == 0) {
        r.db = "nosuchdb";
        r.query = "tick(1)";
        r.expect_status = 404;
      } else {
        r.query = "tick(T";  // unbalanced: a located parse error
        r.db = "tick";
        r.expect_status = 400;
      }
      break;
  }
  r.body = "{\"query\":\"" + r.query + "\",\"database\":\"" + r.db + "\"";
  if (r.max_rows > 0) r.body += ",\"max_rows\":" + std::to_string(r.max_rows);
  r.body += "}";
  return r;
}

/// The request mix as a fixed 20-slot cycle: 9 ask, 5 fo, 5 open and 1
/// refused (45/25/25/5%). The shares are an unverified assumption, not
/// taken from recorded traffic; re-derive them from a request log once one
/// is available. Every seed sends the same mix; the seed picks the
/// constants and depths.
constexpr Class kMix[20] = {kAsk, kFo,   kAsk, kOpen, kAsk, kFo,  kAsk,
                            kOpen, kAsk, kRefused, kAsk, kFo, kAsk, kOpen,
                            kAsk, kFo,   kAsk, kOpen, kFo,  kOpen};

/// The serving stack of one set-up: registry, then server.
struct Stack {
  std::unique_ptr<DatabaseRegistry> registry;
  std::unique_ptr<HttpServer> server;
  chronolog::MetricsRegistry* metrics = nullptr;  // tick's, shared by serve
};

bool StartStack(const std::vector<Database>& dbs, Stack* stack,
                std::string* error) {
  stack->registry = std::make_unique<DatabaseRegistry>();
  for (const Database& db : dbs) {
    chronolog::Status added = stack->registry->AddFromSource(db.name, db.source);
    if (!added.ok()) {
      *error = std::string(db.name) + ": " + added.ToString();
      return false;
    }
  }
  const DatabaseRegistry::Entry* tick = stack->registry->Find("tick");
  stack->metrics = tick->tdd.metrics();
  chronolog::HttpServerOptions options;
  options.num_workers = kWorkers;
  options.metrics = stack->metrics;
  stack->server = std::make_unique<HttpServer>(options);
  chronolog::RegisterObservabilityEndpoints(*stack->server, stack->metrics,
                                            tick->tdd.trace(), "ledger");
  chronolog::QueryServiceOptions query_options;
  query_options.metrics = stack->metrics;
  chronolog::RegisterQueryEndpoints(*stack->server, stack->registry.get(),
                                    query_options);
  chronolog::Status started = stack->server->Start();
  if (!started.ok()) {
    *error = started.ToString();
    return false;
  }
  return true;
}

/// What one caller thread measured.
struct CallerResult {
  Outcome outcome;
  // Query round trips by one-second window of completion (scrapes are
  // timed apart, in scrape_ms).
  std::vector<LatencyHistogram> windows;
  LatencyHistogram class_rt_us[kNumClasses];
  // Traced: round trip minus the server's eval_ms of the same request (the
  // class's mean parse time is taken off after the run).
  LatencyHistogram class_rt_less_eval_us[kNumClasses];
  LatencyHistogram eval_us;  // traced: the server's eval_ms, answered requests
  LayerTable self_table;     // traced: the op's self time by layer
  double op_ms = 0;          // traced: op latency on the loop's own clock
  double bytes = 0;
  std::vector<double> scrape_ms;
};

class Caller {
 public:
  Caller(int index, const std::vector<Request>* pool, const Stack* stack,
         const RunConfig& config, SpanLog* log)
      : index_(index),
        pool_(pool),
        log_(log),
        client_(stack->server->port()),
        oracle_(&result_.outcome, config.inject_every) {}

  void Run(Clock::time_point start, Clock::time_point deadline) {
    start_ = start;
    std::mt19937 rng(static_cast<uint32_t>(index_ * 7919 + 1));
    std::size_t next = static_cast<std::size_t>(index_) * pool_->size() / kClients;
    Clock::time_point last_scrape = Clock::now();
    uint64_t op = 0;
    while (Clock::now() < deadline) {
      const Request& r = (*pool_)[next];
      next = (next + 1 + rng() % 3) % pool_->size();
      Issue(r, op++);
      if (index_ == 0 && MsSince(last_scrape) >= 1000) {
        Scrape(op);
        last_scrape = Clock::now();
      }
    }
  }

  CallerResult& result() { return result_; }

 private:
  void Issue(const Request& r, uint64_t op) {
    oracle_.Begin();
    HttpReply reply;
    double rt_ms = 0;
    if (log_ == nullptr) {
      const Clock::time_point t0 = Clock::now();
      reply = client_.Post("/query", r.body);
      rt_ms = MsSince(t0);
    } else {
      // The traced op: the round trip, then reading the server's own
      // eval_ms for this request off the reply (harness time).
      const Clock::time_point op_start = Clock::now();
      double eval_us = 0;
      log_->BeginOp(op);
      {
        ScopedSpan root(log_, "op.serve");
        {
          ScopedSpan s(log_, "serve.roundtrip");
          const Clock::time_point t0 = Clock::now();
          reply = client_.Post("/query", r.body);
          rt_ms = MsSince(t0);
        }
        eval_us = ReplyEvalUs(reply);
      }
      result_.op_ms += MsSince(op_start);
      log_->EndOp(&result_.self_table);
      // The handler's EvaluateQueryOverSpec ran inside the round trip: it
      // is the query layer's share of it. Parse time, which the reply does
      // not carry, moves over from the statement store after the run.
      result_.self_table.Reassign("serve", "query", eval_us / 1e3);
      result_.class_rt_less_eval_us[r.cls].Add(rt_ms * 1e3 - eval_us);
      if (reply.status == 200) {
        result_.eval_us.Add(eval_us);
        oracle_.Check(eval_us > 0, r.body + ": reply carries no eval_ms");
      }
    }
    const auto window =
        static_cast<std::size_t>(MsBetween(start_, Clock::now()) / 1000);
    if (result_.windows.size() <= window) result_.windows.resize(window + 1);
    result_.windows[window].Add(rt_ms * 1e3);
    result_.class_rt_us[r.cls].Add(rt_ms * 1e3);
    result_.bytes += static_cast<double>(reply.bytes);
    if (reply.status != r.expect_status) {
      oracle_.Fail(r.body + ": HTTP " + std::to_string(reply.status) +
                   ", expected " + std::to_string(r.expect_status));
      return;
    }
    if (r.expect_status == 200) {
      const std::string& body = reply.body;
      const std::string& want = r.expect_suffix;
      oracle_.Check(body.size() >= want.size() &&
                        body.compare(body.size() - want.size(), want.size(),
                                     want) == 0,
                    r.body + ": answer differs from in-process Query");
    } else {
      // The expected refusal: still a comparison the self-test can flip.
      oracle_.Check(true, r.body);
    }
  }

  /// The server's evaluation time of the request, from the reply's
  /// `eval_ms` field (0 when the reply has none).
  static double ReplyEvalUs(const HttpReply& reply) {
    static const std::string kField = "\"eval_ms\":";
    const std::size_t at = reply.body.find(kField);
    if (reply.status != 200 || at == std::string::npos) return 0;
    return std::strtod(reply.body.c_str() + at + kField.size(), nullptr) * 1e3;
  }

  /// The operator's scrape: statement statistics of one database (rendered
  /// while the other caller keeps recording) and the metrics exposition.
  void Scrape(uint64_t op) {
    static const char* const kDbs[] = {"tick", "ski", "ring", "path"};
    const std::string db = kDbs[op % 4];
    const Clock::time_point t0 = Clock::now();
    const HttpReply statements = client_.Get("/statements?db=" + db);
    const HttpReply metrics = client_.Get("/metrics");
    result_.scrape_ms.push_back(MsSince(t0));
    oracle_.Begin();  // one op: both documents
    if (statements.status != 200 || metrics.status != 200) {
      oracle_.Fail("scrape: HTTP " + std::to_string(statements.status) + "/" +
                   std::to_string(metrics.status));
      return;
    }
    oracle_.Check(chronolog::ParseJson(statements.body).ok() &&
                      statements.body.find("\"statements\":[") !=
                          std::string::npos,
                  "GET /statements?db=" + db + ": not a statements document");
    oracle_.Check(metrics.body.find("# TYPE") != std::string::npos,
                  "GET /metrics: not a Prometheus exposition");
  }

  int index_;
  const std::vector<Request>* pool_;
  SpanLog* log_;
  HttpClient client_;
  Clock::time_point start_;
  CallerResult result_;
  Oracle oracle_;
};

/// Runs the closed loop for `seconds`; returns the wall time in seconds.
double RunCallers(const std::vector<Request>& pool, const Stack& stack,
                  const RunConfig& config, double seconds,
                  std::vector<std::unique_ptr<SpanLog>>* logs,
                  std::vector<std::unique_ptr<Caller>>* callers) {
  callers->clear();
  for (int i = 0; i < kClients; ++i) {
    SpanLog* log = logs != nullptr ? (*logs)[i].get() : nullptr;
    callers->push_back(
        std::make_unique<Caller>(i, &pool, &stack, config, log));
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (auto& caller : *callers) {
    threads.emplace_back(
        [&caller, start, deadline]() { caller->Run(start, deadline); });
  }
  for (std::thread& t : threads) t.join();
  return MsSince(start) / 1e3;
}

LatencyHistogram Total(const std::vector<LatencyHistogram>& windows) {
  LatencyHistogram total;
  for (const LatencyHistogram& w : windows) total.Merge(w);
  return total;
}

/// The serve figures, each the median over the run's whole one-second
/// windows: completed requests per second, and each window's p50, p90 and
/// p99 round trip. A burst of neighbour load on a shared host then moves one
/// window, not the run's figure. Runs shorter than two seconds use the whole
/// run as one window.
struct WindowedFigures {
  double ops_per_s = 0, p50_ms = 0, p90_ms = 0, p99_ms = 0;
  std::string note;
};

WindowedFigures Windowed(const std::vector<LatencyHistogram>& windows,
                         double seconds) {
  const auto whole = static_cast<std::size_t>(seconds);
  std::vector<LatencyHistogram> used(
      windows.begin(), windows.begin() + std::min(whole, windows.size()));
  if (used.size() < 2) used = {Total(windows)};
  const double span_s = used.size() == 1 ? seconds : 1.0;
  std::vector<double> rate, p50, p90, p99;
  uint64_t fewest = UINT64_MAX;
  for (const LatencyHistogram& w : used) {
    rate.push_back(static_cast<double>(w.count()) / span_s);
    p50.push_back(w.Quantile(0.5) / 1e3);
    p90.push_back(w.Quantile(0.9) / 1e3);
    p99.push_back(w.Quantile(0.99) / 1e3);
    fewest = std::min(fewest, w.count());
  }
  WindowedFigures f{Median(rate), Median(p50), Median(p90), Median(p99), ""};
  f.note = "latency: median over " + std::to_string(used.size()) +
           " one-second windows of each window's quantile; samples " +
           std::to_string(Total(windows).count()) + ", fewest in a window " +
           std::to_string(fewest) + " (" + std::to_string(fewest / 10) +
           " beyond its p90, " + std::to_string(fewest / 100) +
           " beyond its p99); p99 " + FormatNumber(f.p99_ms) + " ms";
  return f;
}

/// Pins this thread, and so every thread it starts afterwards (the server's
/// workers and the callers), to the first two CPUs it may use. The closed
/// loop keeps at most two threads runnable. Left to float over four vCPUs,
/// the caller/worker pairs migrate, and one-second throughput swung between
/// 8k and 16k requests/s on the reference host; pinned, it held within ~10%.
/// Returns the CPUs used.
std::string PinToTwoCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "unpinned";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string cpus;
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < 2; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    cpus += (n++ > 0 ? "," : "") + std::to_string(cpu);
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return "unpinned";
  return cpus;
}

/// Each answered request's statement-store key: (database, query shape).
/// The pool's shapes fall into one class each.
using ShapeClasses = std::map<std::pair<std::string, std::string>, Class>;

ShapeClasses MapShapes(const std::vector<Request>& pool, Outcome* out) {
  ShapeClasses shapes;
  for (const Request& r : pool) {
    if (r.expect_status != 200) continue;  // refused: never recorded
    const auto [it, fresh] = shapes.try_emplace(
        {r.db, chronolog::NormalizeQueryShape(r.query)}, r.cls);
    if (!fresh && it->second != r.cls) {
      out->notes.push_back("warning: shape " + it->first.second +
                           " is in two request classes");
    }
  }
  return shapes;
}

/// The statement store's running totals over the pool's shapes, per class.
struct StoreTotals {
  double calls = 0, parse_ms = 0, rows = 0, lookups = 0, rewrites = 0;
};

std::vector<StoreTotals> ReadStore(const DatabaseRegistry& registry,
                                   const ShapeClasses& shapes) {
  std::vector<StoreTotals> totals(kNumClasses);
  for (const auto& [key, cls] : shapes) {
    const chronolog::StatementStats::Entry* e =
        registry.Find(key.first)->statements->GetOrCreate(key.second);
    StoreTotals& t = totals[cls];
    t.calls += static_cast<double>(e->calls.load());
    t.parse_ms += static_cast<double>(e->parse_ns.load()) / 1e6;
    t.rows += static_cast<double>(e->rows.load());
    t.lookups += static_cast<double>(e->oracle_lookups.load());
    t.rewrites += static_cast<double>(e->rewrite_steps.load());
  }
  return totals;
}

/// In-process `TemporalDatabase::Ask` latency at h ~ 10^3 and h ~ 10^9 on
/// the oracle's engines (Prop. 3.1: the same). An Ask takes well under a
/// microsecond, so each sample times a batch of 100; the medians are over
/// 40 batches per depth, alternating. Returns {us per Ask, deep / shallow}.
std::pair<double, double> AskDepthProbe(
    std::map<std::string, TemporalDatabase>& engines) {
  constexpr int kBatch = 100;
  std::vector<double> shallow, deep, all;
  for (int i = 0; i < 80; ++i) {
    const bool is_deep = i % 2 == 1;
    const int64_t base = is_deep ? 1'000'000'000 : 1'000;
    TemporalDatabase& tdd = engines.at(i % 4 < 2 ? "tick" : "ring");
    std::vector<std::string> atoms;
    for (int k = 0; k < kBatch; ++k) {
      const std::string h = std::to_string(base + i * kBatch + k);
      atoms.push_back(i % 4 < 2 ? "tick(" + h + ")" : "tok(" + h + ", r3_2)");
    }
    const Clock::time_point t0 = Clock::now();
    for (const std::string& atom : atoms) {
      if (!tdd.Ask(atom).ok()) return {0, 0};
    }
    const double us = MsSince(t0) * 1e3 / kBatch;
    (is_deep ? deep : shallow).push_back(us);
    all.push_back(us);
  }
  return {Median(all), Median(deep) / Median(shallow)};
}

}  // namespace

Outcome RunServeWorkload(const RunConfig& config) {
  Outcome out;
  Oracle oracle(&out, config.inject_every);
  out.notes.push_back("serve threads pinned to CPUs " + PinToTwoCpus());
  // Set-up: inputs, registration (spec builds), server start. Timed eight
  // times before the run (the last stack serves it) and seven times after,
  // so the median spans the run's stretch of host time.
  std::vector<double> setups;
  std::vector<Database> dbs;
  std::vector<Request> pool;
  std::vector<int> analytic;
  auto set_up = [&](Stack* stack) {
    stack->server.reset();
    stack->registry.reset();
    oracle.Begin();
    const Clock::time_point t0 = Clock::now();
    std::mt19937 rng(static_cast<uint32_t>(config.seed * 2246822519u + 3));
    dbs = MakeDatabases();
    pool.clear();
    analytic.clear();
    int per_class[kNumClasses] = {};
    for (int k = 0; k < kPoolSize; ++k) {
      // Each class visits the four databases in turn.
      const Class cls = kMix[k % 20];
      int a = -1;
      pool.push_back(MakeRequest(cls, per_class[cls]++ % 4, &rng, &a));
      analytic.push_back(a);
    }
    std::string error;
    if (!StartStack(dbs, stack, &error)) {
      oracle.Fail("set-up: " + error);
      return false;
    }
    setups.push_back(MsSince(t0) / 1e3);
    return true;
  };
  auto set_up_after = [&]() {
    for (int i = 0; i < 7; ++i) {
      Stack discarded;
      set_up(&discarded);
    }
  };
  Stack stack;
  for (int i = 0; i < 8; ++i) {
    if (!set_up(&stack)) return out;
  }

  // Expected answers: in-process TemporalDatabase::Query on engines of our
  // own, checked against closed forms where a ground ask has one.
  std::map<std::string, TemporalDatabase> engines;
  for (const Database& db : dbs) {
    oracle.Begin();
    auto tdd = TemporalDatabase::FromSource(db.source);
    if (!tdd.ok() || !tdd->specification().ok()) {
      oracle.Fail(std::string("oracle engine ") + db.name);
      return out;
    }
    engines.emplace(db.name, std::move(tdd.value()));
  }
  for (std::size_t k = 0; k < pool.size(); ++k) {
    Request& r = pool[k];
    if (r.expect_status != 200) continue;
    oracle.Begin();
    TemporalDatabase& tdd = engines.at(r.db);
    chronolog::QueryLimits limits;
    limits.max_rows = r.max_rows > 0 ? r.max_rows : kServiceMaxRows;
    auto answer = tdd.Query(r.query, limits);
    if (!answer.ok()) {
      oracle.Fail(r.query + ": in-process " + answer.status().ToString());
      continue;
    }
    if (analytic[k] >= 0) {
      oracle.Check(answer->boolean == (analytic[k] == 1),
                   r.db + " " + r.query + ": in-process Query vs closed form");
    }
    r.expect_suffix =
        chronolog::QueryAnswerToJson(answer.value(), tdd.vocab()).substr(1) +
        "\n";
  }

  auto merge = [&out](std::vector<std::unique_ptr<Caller>>& callers,
                      CallerResult* all) {
    for (auto& caller : callers) {
      CallerResult& r = caller->result();
      out.attempted += r.outcome.attempted;
      out.failed += r.outcome.failed;
      out.notes.insert(out.notes.end(), r.outcome.notes.begin(),
                       r.outcome.notes.end());
      if (all->windows.size() < r.windows.size()) {
        all->windows.resize(r.windows.size());
      }
      for (std::size_t w = 0; w < r.windows.size(); ++w) {
        all->windows[w].Merge(r.windows[w]);
      }
      for (int c = 0; c < kNumClasses; ++c) {
        all->class_rt_us[c].Merge(r.class_rt_us[c]);
        all->class_rt_less_eval_us[c].Merge(r.class_rt_less_eval_us[c]);
      }
      all->self_table.Merge(r.self_table);
      all->eval_us.Merge(r.eval_us);
      all->op_ms += r.op_ms;
      all->scrape_ms.insert(all->scrape_ms.end(), r.scrape_ms.begin(),
                            r.scrape_ms.end());
      all->bytes += r.bytes;
    }
  };
  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) /
                               static_cast<double>(v.size());
  };

  std::vector<std::unique_ptr<Caller>> callers;
  if (!config.trace) {
    RunCallers(pool, stack, config, config.seconds, nullptr, &callers);
    CallerResult all;
    merge(callers, &all);
    stack.server->Stop();
    const double rss = PeakRssMb();
    set_up_after();
    const WindowedFigures f = Windowed(all.windows, config.seconds);
    out.Add("setup_s", Median(setups), "s");
    out.Add("ops_per_s", f.ops_per_s, "1/s");
    out.Add("latency_p50_ms", f.p50_ms, "ms");
    out.Add("latency_p90_ms", f.p90_ms, "ms");
    out.Add("peak_rss_mb", rss, "MiB");
    out.notes.push_back(f.note);
    out.notes.push_back("scrapes: " + std::to_string(all.scrape_ms.size()));
    return out;
  }

  // Traced run: untraced half first (overhead baseline), then traced half.
  const double plain_wall = RunCallers(pool, stack, config, config.seconds / 2,
                                       nullptr, &callers);
  CallerResult plain;
  merge(callers, &plain);
  const double plain_ops_per_s =
      static_cast<double>(Total(plain.windows).count()) / plain_wall;
  chronolog::MetricsRegistry* m = stack.metrics;
  const double opened0 = static_cast<double>(m->counter("serve.connections_opened")->value());
  const double reused0 = static_cast<double>(m->counter("serve.connections_reused")->value());
  const ShapeClasses shapes = MapShapes(pool, &out);
  const std::vector<StoreTotals> store0 = ReadStore(*stack.registry, shapes);
  const Clock::time_point epoch = Clock::now();
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (int i = 0; i < kClients; ++i) {
    logs.push_back(std::make_unique<SpanLog>(epoch, i + 1, /*keep_ops=*/64));
  }
  const double wall =
      RunCallers(pool, stack, config, config.seconds / 2, &logs, &callers);
  CallerResult all;
  merge(callers, &all);
  const double opened = static_cast<double>(m->counter("serve.connections_opened")->value()) - opened0;
  const double reused = static_cast<double>(m->counter("serve.connections_reused")->value()) - reused0;
  stack.server->Stop();
  // The traced half's share of the store: the server's own parse time and
  // counts for exactly the requests the callers sent.
  std::vector<StoreTotals> store = ReadStore(*stack.registry, shapes);
  StoreTotals queries;
  for (int c = 0; c < kNumClasses; ++c) {
    StoreTotals& t = store[c];
    t.calls -= store0[c].calls;
    t.parse_ms -= store0[c].parse_ms;
    t.rows -= store0[c].rows;
    t.lookups -= store0[c].lookups;
    t.rewrites -= store0[c].rewrites;
    queries.calls += t.calls;
    queries.parse_ms += t.parse_ms;
    queries.rows += t.rows;
    queries.lookups += t.lookups;
    queries.rewrites += t.rewrites;
  }
  const auto [ask_us, depth_ratio] = AskDepthProbe(engines);

  if (!config.trace_out.empty()) {
    std::vector<const SpanLog*> views;
    for (const auto& log : logs) views.push_back(log.get());
    WriteChromeTrace(config.trace_out, views, "serve", &out);
  }
  all.self_table.Reassign("serve", "query", queries.parse_ms);
  const double ops = static_cast<double>(std::max<uint64_t>(all.self_table.ops, 1));
  ReportLayerTable(all.self_table, all.op_ms / ops, &out);
  const double n = static_cast<double>(Total(all.windows).count());
  out.Add("bench.trace_overhead", (n / wall) / plain_ops_per_s, "ratio");
  for (int c = 0; c < kNumClasses; ++c) {
    const double parse_us =
        store[c].calls > 0 ? store[c].parse_ms * 1e3 / store[c].calls : 0;
    out.Add(std::string("serve.roundtrip_us.") + kClassNames[c],
            all.class_rt_us[c].Quantile(0.5), "us");
    out.Add(std::string("serve.self_us.") + kClassNames[c],
            all.class_rt_less_eval_us[c].Quantile(0.5) - parse_us, "us");
  }
  out.Add("serve.reuse_ratio", opened + reused > 0 ? reused / (opened + reused) : 0,
          "ratio");
  out.Add("serve.scrape_ms", mean(all.scrape_ms), "ms");
  // The p99 round trip is reported here, ungated: on a shared 4-vCPU host
  // its run-to-run spread is far above any usable regression bound.
  out.Add("serve.latency_p99_ms",
          Windowed(plain.windows, config.seconds / 2).p99_ms, "ms");
  out.Add("serve.bytes_per_response", all.bytes / n, "bytes");
  const double calls = std::max(queries.calls, 1.0);
  out.Add("query.parse_us", queries.parse_ms * 1e3 / calls, "us");
  out.Add("query.eval_us", all.eval_us.Quantile(0.5), "us");
  out.Add("query.lookups_per_query", queries.lookups / calls, "count");
  out.Add("query.rewrite_steps_per_query", queries.rewrites / calls, "count");
  out.Add("query.rows_per_query", queries.rows / calls, "count");
  out.Add("core.ask_us", ask_us, "us");
  out.Add("query.depth_ratio", depth_ratio, "ratio");
  AddUnreached(kSpecMetrics, &out);
  AddUnreached(kRoundMetrics, &out);
  AddUnreached(kBtMetrics, &out);
  return out;
}

}  // namespace ledger
