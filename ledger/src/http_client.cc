#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>

namespace ledger {

bool HttpClient::Connect() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  carry_.clear();
}

HttpReply HttpClient::Get(const std::string& target) {
  return Exchange("GET " + target + " HTTP/1.1\r\nHost: ledger\r\n\r\n");
}

HttpReply HttpClient::Post(const std::string& target,
                           const std::string& body) {
  return Exchange("POST " + target +
                  " HTTP/1.1\r\nHost: ledger\r\nContent-Type: "
                  "application/json\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
}

HttpReply HttpClient::Exchange(const std::string& request) {
  HttpReply reply;
  if (fd_ < 0 && !Connect()) return reply;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }
  auto fill = [this]() {
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    carry_.append(buf, static_cast<std::size_t>(n));
    return true;
  };
  std::size_t head_end;
  while ((head_end = carry_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) {
      Close();
      return reply;
    }
  }
  const std::string head = carry_.substr(0, head_end);
  std::size_t body_size = 0;
  if (const std::size_t cl = head.find("Content-Length: ");
      cl != std::string::npos) {
    body_size = std::strtoull(head.c_str() + cl + 16, nullptr, 10);
  }
  const std::size_t total = head_end + 4 + body_size;
  while (carry_.size() < total) {
    if (!fill()) {
      Close();
      return reply;
    }
  }
  // "HTTP/1.1 200 OK": the status code starts at offset 9.
  reply.status = head.size() > 12 ? std::atoi(head.c_str() + 9) : 0;
  reply.body = carry_.substr(head_end + 4, body_size);
  reply.bytes = total;
  carry_.erase(0, total);
  if (head.find("Connection: close") != std::string::npos) Close();
  return reply;
}

}  // namespace ledger
