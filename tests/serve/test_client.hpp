#pragma once

/// Minimal blocking HTTP test client for the serve tests: deliberately the
/// dumbest possible counterparty (one fd, blocking reads, no retries) so a
/// test failure implicates the server, never the harness. Every helper
/// carries a receive timeout so a server-side hang fails the assertion
/// instead of wedging ctest.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace bladed::serve::testing {

/// Blocking loopback connect with a receive timeout (seconds).
inline int dial(std::uint16_t port, double recv_timeout_seconds = 30.0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = static_cast<long>(recv_timeout_seconds);
  tv.tv_usec = static_cast<long>((recv_timeout_seconds - tv.tv_sec) * 1e6);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

inline bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until the peer closes (Connection: close exchanges).
inline std::string read_to_eof(int fd) {
  std::string out;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // EOF, error, or SO_RCVTIMEO expiry
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

struct Reply {
  int status = -1;       ///< -1: no status line arrived (reset / timeout)
  std::string head;      ///< status line + headers
  std::string body;
  [[nodiscard]] bool has_header(std::string_view line) const {
    return head.find(line) != std::string::npos;
  }
};

inline Reply parse_reply(const std::string& raw) {
  Reply r;
  if (raw.size() >= 12 && raw.compare(0, 9, "HTTP/1.1 ") == 0) {
    r.status = std::atoi(raw.c_str() + 9);
  }
  const std::size_t sep = raw.find("\r\n\r\n");
  if (sep == std::string::npos) {
    r.head = raw;
  } else {
    r.head = raw.substr(0, sep);
    r.body = raw.substr(sep + 4);
  }
  return r;
}

/// One full Connection: close exchange on a fresh connection.
inline Reply roundtrip(std::uint16_t port, std::string_view request,
                       double recv_timeout_seconds = 30.0) {
  const int fd = dial(port, recv_timeout_seconds);
  if (fd < 0) return {};
  Reply r;
  if (send_all(fd, request)) r = parse_reply(read_to_eof(fd));
  ::close(fd);
  return r;
}

/// Read exactly one response off a keep-alive connection (headers, then
/// Content-Length body bytes).
inline Reply read_one_response(int fd) {
  std::string raw;
  char ch;
  while (raw.find("\r\n\r\n") == std::string::npos) {
    if (::recv(fd, &ch, 1, 0) != 1) return parse_reply(raw);
    raw.push_back(ch);
  }
  std::size_t need = 0;
  const std::size_t cl = raw.find("Content-Length: ");
  if (cl != std::string::npos) {
    need = static_cast<std::size_t>(std::atol(raw.c_str() + cl + 16));
  }
  while (need-- > 0) {
    if (::recv(fd, &ch, 1, 0) != 1) break;
    raw.push_back(ch);
  }
  return parse_reply(raw);
}

inline std::string get_request(std::string_view target,
                               bool keep_alive = false) {
  std::string r = "GET ";
  r += target;
  r += " HTTP/1.1\r\nHost: t\r\n";
  if (!keep_alive) r += "Connection: close\r\n";
  r += "\r\n";
  return r;
}

inline std::string post_simulate(std::string_view json_body,
                                 bool keep_alive = false) {
  std::string r = "POST /v1/simulate HTTP/1.1\r\nHost: t\r\n";
  if (!keep_alive) r += "Connection: close\r\n";
  r += "Content-Length: " + std::to_string(json_body.size()) + "\r\n\r\n";
  r += json_body;
  return r;
}

/// Canonical treecode request body. `particles`/`steps` pick the runtime
/// class (small = milliseconds, 20000x50 = many seconds); `seed` makes
/// configs distinct so they do not coalesce or hit each other's cache rows.
struct SimBody {
  std::uint64_t seed = 1;
  std::int64_t particles = 200;
  int steps = 1;
  int ranks = 2;
  double deadline_ms = 0.0;
  bool allow_degraded = true;
  bool force = false;

  [[nodiscard]] std::string str() const {
    Json b = Json::object();
    b.set("workload", "treecode")
        .set("ranks", ranks)
        .set("particles", particles)
        .set("steps", steps)
        .set("seed", seed)
        .set("allow_degraded", allow_degraded);
    if (deadline_ms > 0.0) b.set("deadline_ms", deadline_ms);
    if (force) b.set("force", true);
    return b.dump();
  }
};

/// GET /stats as parsed JSON (throws on malformed — itself a server bug).
inline Json fetch_stats(std::uint16_t port) {
  return Json::parse(roundtrip(port, get_request("/stats")).body);
}

inline std::uint64_t counter(const Json& stats, const char* name) {
  return static_cast<std::uint64_t>(stats.get(name).as_number());
}

inline std::uint64_t gauge(const Json& stats, const char* name) {
  return static_cast<std::uint64_t>(stats.get("gauges").get(name).as_number());
}

}  // namespace bladed::serve::testing
