// PR 7/8 headline numbers: end-to-end query serving over the wire on
// loopback. Two client modes:
//
//  * close-per-request — connect, POST /query, evaluate, render, tear the
//    connection down. One connect/teardown per query: the PR 7 ceiling,
//    dominated by syscalls rather than evaluation.
//  * keep-alive — one persistent HTTP/1.1 connection carries a run of
//    requests (the Arg is requests-per-connection), reconnecting only when
//    the run ends. This is the PR 8 serving mode; the spread between the
//    two is exactly the per-connection setup cost keep-alive removes.
//
// Suites:
//  * BM_ServePostQuery          — close-mode round-trip latency / QPS, 1
//                                 and 4 client threads against a 4-worker
//                                 server;
//  * BM_ServePostQueryKeepAlive — keep-alive QPS at 16 / 256 requests per
//                                 connection, 1 and 4 client threads (the
//                                 server runs 4 workers, and a kept-alive
//                                 connection pins one — client threads must
//                                 stay <= workers);
//  * BM_ServePostQueryRows      — row-rendering cost as max_rows grows;
//  * BM_ServeRefusedQuery       — the parse-and-refuse path (unknown
//                                 database -> 404), an upper bound on the
//                                 per-request overhead when no evaluation
//                                 happens. Shedding under load must stay
//                                 far cheaper than serving.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "serve/http_server.h"
#include "serve/query_endpoints.h"
#include "serve/registry.h"

namespace chronolog {
namespace {

/// One blocking request/response exchange against 127.0.0.1:`port`.
std::string RoundTrip(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string PostQuery(int port, const std::string& body) {
  // Explicit close: this helper frames the response by EOF, and the close
  // mode must keep paying the connect/teardown the keep-alive suite avoids.
  return RoundTrip(port, "POST /query HTTP/1.1\r\nHost: b\r\n"
                         "Connection: close\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body);
}

/// A persistent HTTP/1.1 connection: requests share one socket, responses
/// are framed by Content-Length (no EOF to read to).
class KeepAliveClient {
 public:
  ~KeepAliveClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    Disconnect();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Disconnect();
      return false;
    }
    return true;
  }

  void Disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool connected() const { return fd_ >= 0; }

  /// One request/response exchange on the open connection.
  std::string PostQuery(const std::string& body) {
    const std::string request =
        "POST /query HTTP/1.1\r\nHost: b\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n =
          ::send(fd_, request.data() + sent, request.size() - sent, 0);
      if (n <= 0) return "";
      sent += static_cast<std::size_t>(n);
    }
    std::size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return "";
    }
    std::size_t body_size = 0;
    const std::size_t cl = buffer_.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      body_size = static_cast<std::size_t>(
          std::strtoull(buffer_.c_str() + cl + 16, nullptr, 10));
    }
    const std::size_t total = header_end + 4 + body_size;
    while (buffer_.size() < total) {
      if (!Fill()) return "";
    }
    std::string response = buffer_.substr(0, total);
    buffer_.erase(0, total);
    return response;
  }

 private:
  bool Fill() {
    char buf[8192];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// The shared server: one registry entry (`tick` mod 128 — a spec with ~129
/// representatives, so open tautology queries yield enough rows to make
/// max_rows sweeps meaningful) behind a 4-worker HttpServer. Built once,
/// reused by every benchmark; leaked teardown is fine for a bench process.
struct ServeHarness {
  DatabaseRegistry registry;
  std::unique_ptr<HttpServer> server;

  ServeHarness() {
    auto added = registry.AddFromSource("default", R"(
      tick(0).
      tick(T+128) :- tick(T).
    )");
    if (!added.ok()) std::abort();
    HttpServerOptions options;
    options.num_workers = 4;
    server = std::make_unique<HttpServer>(options);
    QueryServiceOptions query_options;
    query_options.max_in_flight = 64;  // out of the way for the QPS suites
    RegisterQueryEndpoints(*server, &registry, query_options);
    if (!server->Start().ok()) std::abort();
  }
};

ServeHarness& Harness() {
  static ServeHarness harness;
  return harness;
}

void BM_ServePostQuery(benchmark::State& state) {
  const int port = Harness().server->port();
  const std::string body = R"j({"query":"tick(T)"})j";
  for (auto _ : state) {
    const std::string response = PostQuery(port, body);
    if (response.find("HTTP/1.1 200") == std::string::npos) {
      state.SkipWithError("non-200 response");
      break;
    }
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());  // items/s == queries/s
}
BENCHMARK(BM_ServePostQuery)->Threads(1)->Threads(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServePostQueryKeepAlive(benchmark::State& state) {
  const int port = Harness().server->port();
  const std::string body = R"j({"query":"tick(T)"})j";
  const int64_t requests_per_conn = state.range(0);
  // Each client thread owns one persistent connection (a kept-alive
  // connection pins a server worker, so thread counts must stay <= the
  // harness's 4 workers) and reconnects every `requests_per_conn` requests.
  KeepAliveClient client;
  int64_t served_on_conn = 0;
  for (auto _ : state) {
    if (!client.connected() || served_on_conn >= requests_per_conn) {
      if (!client.Connect(port)) {
        state.SkipWithError("connect failed");
        break;
      }
      served_on_conn = 0;
    }
    const std::string response = client.PostQuery(body);
    ++served_on_conn;
    if (response.find("HTTP/1.1 200") == std::string::npos) {
      state.SkipWithError("non-200 response");
      break;
    }
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["reqs_per_conn"] = static_cast<double>(requests_per_conn);
}
BENCHMARK(BM_ServePostQueryKeepAlive)
    ->Arg(16)->Arg(256)
    ->Threads(1)->Threads(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServePostQueryRows(benchmark::State& state) {
  const int port = Harness().server->port();
  // The tautology holds at every representative: max_rows picks how much of
  // the ~129-row answer gets rendered and shipped.
  const std::string body =
      R"j({"query":"tick(T) | ~tick(T)","max_rows":)j" +
      std::to_string(state.range(0)) + "}";
  for (auto _ : state) {
    const std::string response = PostQuery(port, body);
    if (response.find("HTTP/1.1 200") == std::string::npos) {
      state.SkipWithError("non-200 response");
      break;
    }
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["max_rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ServePostQueryRows)->Arg(1)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServeRefusedQuery(benchmark::State& state) {
  // A request naming an unknown database walks admission, body read, JSON
  // parse and the registry lookup, then refuses — everything a served query
  // does except evaluation and answer rendering. (The 429 shed path is
  // strictly shorter still, but needs a concurrent flood to trigger, which
  // would make the measurement nondeterministic.)
  const int port = Harness().server->port();
  const std::string body = R"j({"query":"tick(T)","database":"nope"})j";
  for (auto _ : state) {
    const std::string response = PostQuery(port, body);
    if (response.find("HTTP/1.1 404") == std::string::npos) {
      state.SkipWithError("expected 404");
      break;
    }
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRefusedQuery)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace chronolog

BENCHMARK_MAIN();
