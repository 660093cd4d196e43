#pragma once

/// bladed-serve: an event-driven HTTP/JSON front end over the hostperf
/// worker pool. One poll() loop owns every connection (accept, parse,
/// respond, keep-alive); simulation requests become JobPool jobs with a
/// CancelToken + deadline, and their completions come back to the loop
/// through a self-pipe. The robustness contract:
///
///  - bounded admission: JobPool refuses work beyond threads+queue, and the
///    refusal becomes a degraded answer (stale cache, then analytic
///    estimate) when the client allows it, else 429 + Retry-After;
///  - per-request deadlines: the pool watchdog cancels overdue tokens and
///    the simulation unwinds with CancelledError -> 504, promptly freeing
///    the worker slot;
///  - client hardening: header/body caps, strict JSON -> 4xx, read/write/
///    idle timeouts, disconnect-triggered job cancellation;
///  - sessions: results are cached per config hash; identical in-flight
///    configs coalesce onto one job;
///  - graceful drain: SIGTERM (or request_drain) stops accepting, finishes
///    in-flight work within drain_timeout, then cancels the rest.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "hostperf/jobs.hpp"
#include "serve/eventloop.hpp"
#include "serve/http.hpp"
#include "serve/sim.hpp"

namespace bladed::serve {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (port() reports it)
  /// JobPool shape: concurrent simulations and admission queue depth.
  int workers = 1;
  std::size_t queue_capacity = 4;
  /// Result cache entries (sessions); least-recently-used beyond this.
  std::size_t cache_capacity = 256;
  /// Cached results younger than this answer repeats without a rerun; older
  /// entries rerun when capacity allows and only serve as degraded answers.
  double cache_fresh_seconds = 3600.0;
  double default_deadline_seconds = 30.0;  ///< when the request sets none
  /// Socket hardening.
  double read_timeout_seconds = 5.0;   ///< first byte -> complete request
  double idle_timeout_seconds = 30.0;  ///< keep-alive with no request
  double write_timeout_seconds = 5.0;  ///< response flush stall
  std::size_t max_connections = 1024;
  HttpLimits http;
  /// Suggested client backoff on 429/503 (Retry-After header).
  int retry_after_seconds = 1;
  /// Grace for in-flight jobs after drain starts; then tokens are cancelled.
  double drain_timeout_seconds = 10.0;
};

/// Monotonic counters (loop-thread owned, read via stats()).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  ///< peer vanished / hard close
  std::uint64_t accept_errors = 0;        ///< failed accept() (EMFILE, ...)
  std::uint64_t requests = 0;             ///< complete HTTP requests parsed
  std::uint64_t parse_errors = 0;         ///< HTTP-level 4xx/5xx at parse
  std::uint64_t bad_requests = 0;         ///< JSON/schema 400s
  std::uint64_t inline_served = 0;        ///< tco workload answered inline
  std::uint64_t admitted = 0;             ///< jobs handed to the pool
  std::uint64_t coalesced = 0;            ///< riders on an in-flight config
  std::uint64_t completed = 0;            ///< fresh simulation 200s
  std::uint64_t cache_hits = 0;           ///< fresh cached 200s
  std::uint64_t degraded_cached = 0;      ///< stale cache under overload
  std::uint64_t degraded_approx = 0;      ///< analytic estimate, overload
  std::uint64_t shed = 0;                 ///< 429 Too Many Requests
  std::uint64_t rejected_draining = 0;    ///< 503 while draining
  std::uint64_t rejected_over_deadline = 0;  ///< 422, certified bound > deadline
  std::uint64_t deadline_timeouts = 0;    ///< 504 from cancelled jobs
  std::uint64_t disconnect_cancels = 0;   ///< jobs cancelled, client gone
  std::uint64_t read_timeouts = 0;        ///< 408 slow clients
  std::uint64_t write_timeouts = 0;
  std::uint64_t internal_errors = 0;      ///< 500s
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// Connection cap in force: ServerOptions::max_connections, clamped at
  /// construction to what RLIMIT_NOFILE leaves after the server's own
  /// descriptors (a line on stderr says so when the clamp fires).
  [[nodiscard]] std::size_t max_connections() const {
    return opt_.max_connections;
  }

  /// Run the event loop on the calling thread until a drain completes.
  void run();

  /// run() on a background thread (tests, tools embedding the server).
  void start();
  /// request_drain() + join the background thread. Safe to call twice.
  void stop();

  /// Async-signal-safe drain trigger: stop accepting, finish in-flight
  /// work, cancel what outlives drain_timeout, then run()/the background
  /// thread returns.
  void request_drain();

  [[nodiscard]] bool draining() const {
    return drain_requested_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServerStats stats() const;

  /// Point SIGTERM/SIGINT at this server (request_drain from the handler).
  /// Pass nullptr to restore default handlers.
  static void install_signal_handlers(Server* s);

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    Fd sock;
    HttpParser parser;
    std::string in;   ///< unconsumed bytes (pipelined requests wait here)
    std::string out;  ///< pending response bytes
    std::size_t out_off = 0;
    enum class St { kReading, kBusy, kWriting } st = St::kReading;
    bool close_after_write = false;
    bool mid_request = false;  ///< read some of a request (408 vs idle-close)
    bool head_only = false;    ///< current request is HEAD
    Clock::time_point expires;
    std::uint64_t busy_job = 0;  ///< job this conn waits on (0 = none)

    explicit Conn(Fd s, HttpLimits limits)
        : sock(std::move(s)), parser(limits) {}
  };

  struct Waiter {
    std::uint64_t conn_id;
  };

  struct PendingJob {
    std::uint64_t hash = 0;
    std::string hex;
    std::shared_ptr<hostperf::CancelToken> token;
    std::vector<Waiter> waiters;
  };

  /// Session: per-config-hash cached result + usage accounting.
  struct Session {
    Json result;
    double virtual_seconds = 0.0;
    bool has_result = false;
    std::string hex;
    std::uint64_t hits = 0, runs = 0;
    Clock::time_point computed{}, used{};
  };

  struct Completion {
    std::uint64_t job_id = 0;
    bool ok = false;
    bool cancelled = false;
    Json result;
    double virtual_seconds = 0.0;
    std::string error;
  };

  void loop();
  void bump(std::uint64_t ServerStats::* field);
  void accept_new();
  void handle_readable(std::uint64_t id, Conn& c);
  void process_input(std::uint64_t id, Conn& c);
  void dispatch(std::uint64_t id, Conn& c, const HttpRequest& req);
  void handle_simulate(std::uint64_t id, Conn& c, const HttpRequest& req);
  void respond(std::uint64_t id, Conn& c, int status, const Json& body,
               const std::vector<std::string>& extra = {});
  void respond_error(std::uint64_t id, Conn& c, int status,
                     std::string_view message,
                     const std::vector<std::string>& extra = {});
  void queue_response(std::uint64_t id, Conn& c, std::string bytes);
  /// Flush c.out; returns false when the conn died and was not erased yet.
  bool flush(Conn& c);
  void finish_write(std::uint64_t id, Conn& c);
  void drop_conn(std::uint64_t id, bool count_drop);
  void remove_waiter(std::uint64_t job_id, std::uint64_t conn_id);
  void process_completions();
  void scan_timeouts(Clock::time_point now);
  void begin_drain();
  void force_cancel_pending();
  [[nodiscard]] Session& touch_session(std::uint64_t hash,
                                       const std::string& hex);
  /// bladed::wcet certificate for a cms config, computed once per config
  /// hash at first sight (session creation) and reused for every request
  /// that maps to the same session.
  [[nodiscard]] const CmsCertification& certify_for(std::uint64_t hash,
                                                    const SimRequest& req);
  [[nodiscard]] Json make_body(const SimRequest& req, const Json& result,
                               bool cached, bool degraded,
                               std::string_view mode) const;
  [[nodiscard]] Json stats_json();

  ServerOptions opt_;
  TcpListener listener_;
  WakeupPipe wakeup_;
  hostperf::JobPool pool_;

  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  /// The listener stays out of the poll set until this time (or until a
  /// connection closes) after accept() ran out of descriptors or memory.
  Clock::time_point accept_resume_{};
  std::unordered_map<std::uint64_t, PendingJob> pending_;
  std::unordered_map<std::uint64_t, std::uint64_t> running_by_hash_;
  std::uint64_t next_job_id_ = 1;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::unordered_map<std::uint64_t, CmsCertification> certs_;

  std::mutex done_mu_;
  std::vector<Completion> done_;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;  ///< loop-thread view, set by begin_drain()
  Clock::time_point drain_deadline_{};

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  std::thread thread_;
  bool started_ = false;
};

}  // namespace bladed::serve
