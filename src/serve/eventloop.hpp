#pragma once

/// Socket-level building blocks for the serve layer, in the pazpar2
/// eventl.c mold: RAII fds, a loopback TCP listener/connector pair, and a
/// self-pipe for waking a poll() loop from worker threads or a signal
/// handler. Everything here is non-blocking; the callers (Server, the load
/// generator) own the poll() loop itself.

#include <cstdint>
#include <utility>

namespace bladed::serve {

/// Move-only owner of a file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// O_NONBLOCK on; returns false on fcntl failure.
bool set_nonblocking(int fd);

/// Non-blocking listener bound to 127.0.0.1 (SO_REUSEADDR). `port` 0 binds
/// an ephemeral port; `port()` reports the one the kernel picked. Throws
/// SimulationError on bind/listen failure.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port, int backlog = 128);

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accept one connection, already non-blocking. Returns the fd, or
  /// -errno on failure: -EAGAIN when the queue is empty, -EMFILE etc. when
  /// the process is out of descriptors.
  [[nodiscard]] int accept_one();

  void close() { fd_.reset(); }
  [[nodiscard]] bool open() const { return fd_.valid(); }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Begin a non-blocking connect to 127.0.0.1:port. Returns the fd
/// (connection completes when poll reports POLLOUT; check SO_ERROR), or -1.
[[nodiscard]] int connect_loopback(std::uint16_t port);

/// Connect completion check after POLLOUT: 0 = connected, else errno value.
[[nodiscard]] int connect_result(int fd);

/// Self-pipe: worker threads (or a signal handler) call notify(), the poll
/// loop includes read_fd() in its set and calls drain() when it fires.
/// notify() is async-signal-safe (a single write()).
class WakeupPipe {
 public:
  WakeupPipe();  ///< throws SimulationError on pipe() failure

  [[nodiscard]] int read_fd() const { return rd_.get(); }
  void notify() const;
  void drain() const;

 private:
  Fd rd_, wr_;
};

}  // namespace bladed::serve
