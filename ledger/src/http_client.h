// A minimal blocking HTTP/1.1 client over one persistent loopback
// connection: the `serve` workload's closed-loop callers.
#ifndef LEDGER_HTTP_CLIENT_H_
#define LEDGER_HTTP_CLIENT_H_

#include <string>

namespace ledger {

struct HttpReply {
  int status = 0;  // 0 = transport failure
  std::string body;
  std::size_t bytes = 0;  // head + body as received
};

class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One exchange on the kept-alive connection, connecting first when
  /// needed. Reconnects when the server closed the connection.
  HttpReply Get(const std::string& target);
  HttpReply Post(const std::string& target, const std::string& body);

 private:
  HttpReply Exchange(const std::string& request);
  bool Connect();
  void Close();

  int port_;
  int fd_ = -1;
  std::string carry_;  // bytes read past the previous response
};

}  // namespace ledger

#endif  // LEDGER_HTTP_CLIENT_H_
