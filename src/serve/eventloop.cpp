#include "serve/eventloop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace bladed::serve {

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

namespace {

[[nodiscard]] sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw SimulationError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throw SimulationError(std::string("bind(127.0.0.1:") +
                          std::to_string(port) + "): " +
                          std::strerror(errno));
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw SimulationError(std::string("listen(): ") + std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw SimulationError(std::string("getsockname(): ") +
                          std::strerror(errno));
  }
  if (!set_nonblocking(fd.get())) {
    throw SimulationError("fcntl(O_NONBLOCK) on listener failed");
  }
  port_ = ntohs(addr.sin_port);
  fd_ = std::move(fd);
}

int TcpListener::accept_one() {
  if (!fd_.valid()) return -EBADF;
  const int c = ::accept(fd_.get(), nullptr, nullptr);
  if (c < 0) return -errno;
  if (!set_nonblocking(c)) {
    const int err = errno;
    ::close(c);
    return -err;
  }
  const int one = 1;
  ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return c;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr = loopback_addr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_result(int fd) {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

WakeupPipe::WakeupPipe() {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw SimulationError(std::string("pipe(): ") + std::strerror(errno));
  }
  rd_.reset(fds[0]);
  wr_.reset(fds[1]);
  set_nonblocking(rd_.get());
  set_nonblocking(wr_.get());
}

void WakeupPipe::notify() const {
  const char b = 1;
  // EAGAIN means the pipe already holds pending wakeups; that is enough.
  [[maybe_unused]] const ssize_t n = ::write(wr_.get(), &b, 1);
}

void WakeupPipe::drain() const {
  char buf[256];
  while (::read(rd_.get(), buf, sizeof buf) > 0) {
  }
}

}  // namespace bladed::serve
