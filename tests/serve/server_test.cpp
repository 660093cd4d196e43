/// Live-server integration tests: a real Server on an ephemeral loopback
/// port, exercised by the deliberately-dumb blocking client in
/// test_client.hpp. Covers the robustness contract end to end: routing,
/// keep-alive/pipelining, strict-input 4xx, caching, deadline -> 504 with a
/// promptly freed worker slot, saturation -> degraded/429, coalescing,
/// disconnect-triggered cancellation, slow-client timeouts, and drain.
///
/// Determinism note: JobPool admission races with worker pickup (the queue
/// frees as a worker pops), so saturation tests sequence submissions by
/// polling /stats (`admitted`, `gauges.pool_active`) instead of sleeping.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "test_client.hpp"

namespace bladed::serve {
namespace {

using namespace bladed::serve::testing;
using Clock = std::chrono::steady_clock;

constexpr double kLongDeadlineMs = 20000.0;

/// A simulation that runs for many seconds unless cancelled.
[[nodiscard]] SimBody long_job(std::uint64_t seed,
                               double deadline_ms = kLongDeadlineMs) {
  SimBody b;
  b.seed = seed;
  b.ranks = 8;
  b.particles = 20000;
  b.steps = 50;
  b.deadline_ms = deadline_ms;
  return b;
}

/// Open a connection, fire the request, and return the fd WITHOUT reading
/// the response (the caller is parking a long-running job on the server).
[[nodiscard]] int submit_async(std::uint16_t port, const SimBody& body) {
  const int fd = dial(port);
  EXPECT_GE(fd, 0);
  EXPECT_TRUE(send_all(fd, post_simulate(body.str())));
  return fd;
}

template <typename Cond>
[[nodiscard]] bool poll_until(Cond&& cond, double timeout_seconds = 30.0) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  while (!cond()) {
    if (Clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

[[nodiscard]] ServerOptions small_pool() {
  ServerOptions so;
  so.workers = 1;
  so.queue_capacity = 1;
  so.drain_timeout_seconds = 0.5;
  return so;
}

TEST(ServeEndpoints, HealthReadyStatsAndRouting) {
  Server server(small_pool());
  server.start();
  const std::uint16_t port = server.port();

  Reply r = roundtrip(port, get_request("/healthz"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(Json::parse(r.body).get("status").as_string(), "ok");

  r = roundtrip(port, get_request("/readyz"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(Json::parse(r.body).get("status").as_string(), "ready");

  const Json stats = fetch_stats(port);
  EXPECT_TRUE(stats.has("admitted"));
  EXPECT_TRUE(stats.has("shed"));
  EXPECT_EQ(gauge(stats, "pool_threads"), 1u);
  EXPECT_EQ(gauge(stats, "pool_queue_capacity"), 1u);
  EXPECT_FALSE(stats.get("gauges").get("draining").as_bool());

  EXPECT_EQ(roundtrip(port, get_request("/nope")).status, 404);
  r = roundtrip(port, get_request("/v1/simulate"));
  EXPECT_EQ(r.status, 405);
  EXPECT_TRUE(r.has_header("Allow: POST"));
  EXPECT_EQ(roundtrip(port,
                      "DELETE /healthz HTTP/1.1\r\nHost: t\r\n"
                      "Connection: close\r\n\r\n")
                .status,
            405);

  // HEAD: full headers (Content-Length of the would-be body), empty body.
  r = roundtrip(port,
                "HEAD /healthz HTTP/1.1\r\nHost: t\r\n"
                "Connection: close\r\n\r\n");
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(r.has_header("Content-Length: 15"));  // {"status":"ok"}
  EXPECT_TRUE(r.body.empty());

  server.stop();
}

TEST(ServeEndpoints, KeepAliveServesSequentialAndPipelinedRequests) {
  Server server(small_pool());
  server.start();
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);

  // Two sequential exchanges on one connection.
  ASSERT_TRUE(send_all(fd, get_request("/healthz", /*keep_alive=*/true)));
  EXPECT_EQ(read_one_response(fd).status, 200);
  ASSERT_TRUE(send_all(fd, get_request("/stats", /*keep_alive=*/true)));
  EXPECT_EQ(read_one_response(fd).status, 200);

  // Two pipelined requests in a single write; both must be answered, in
  // order, and the trailing Connection: close must end the connection.
  const std::string pipelined =
      get_request("/healthz", true) + get_request("/readyz", false);
  ASSERT_TRUE(send_all(fd, pipelined));
  EXPECT_EQ(read_one_response(fd).status, 200);
  EXPECT_EQ(read_one_response(fd).status, 200);
  char ch;
  EXPECT_EQ(::recv(fd, &ch, 1, 0), 0);  // EOF after close
  ::close(fd);
  server.stop();
}

TEST(ServeRequests, MalformedInputsAre4xxNeverCrashes) {
  ServerOptions so = small_pool();
  so.http.max_body_bytes = 128;
  Server server(so);
  server.start();
  const std::uint16_t port = server.port();

  // Not HTTP at all -> 400 at the parser.
  EXPECT_EQ(roundtrip(port, "<<<definitely not http>>>\r\n\r\n").status, 400);
  // HTTP/2 preface lookalike -> 505.
  EXPECT_EQ(roundtrip(port, "GET / HTTP/2.0\r\n\r\n").status, 505);
  // Valid HTTP, invalid JSON -> 400 with a reason.
  Reply r = roundtrip(port, post_simulate("{\"ranks\": }"));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(Json::parse(r.body).get("error").as_string().find("invalid JSON"),
            std::string::npos);
  // Valid JSON, unknown field -> 400 (typos fail loudly, not silently).
  EXPECT_EQ(roundtrip(port, post_simulate("{\"rankz\":4}")).status, 400);
  // Out-of-range value -> 400.
  EXPECT_EQ(roundtrip(port, post_simulate("{\"ranks\":-3}")).status, 400);
  // Body over the cap -> 413.
  std::string big = "{\"pad\":\"" + std::string(200, 'x') + "\"}";
  EXPECT_EQ(roundtrip(port, post_simulate(big)).status, 413);

  const Json stats = fetch_stats(port);
  EXPECT_EQ(counter(stats, "parse_errors"), 3u);  // garbage, 505, 413
  EXPECT_EQ(counter(stats, "bad_requests"), 3u);  // JSON, schema, range
  server.stop();
}

TEST(ServeSimulate, FreshThenCachedThenForcedRerun) {
  Server server(small_pool());
  server.start();
  const std::uint16_t port = server.port();
  SimBody body;
  body.seed = 11;

  Reply first = roundtrip(port, post_simulate(body.str()));
  ASSERT_EQ(first.status, 200);
  Json j1 = Json::parse(first.body);
  EXPECT_EQ(j1.get("mode").as_string(), "fresh");
  EXPECT_FALSE(j1.get("cached").as_bool());
  EXPECT_FALSE(j1.get("degraded").as_bool());
  EXPECT_GT(j1.get("result").get("interactions").as_number(), 0.0);

  Reply second = roundtrip(port, post_simulate(body.str()));
  ASSERT_EQ(second.status, 200);
  Json j2 = Json::parse(second.body);
  EXPECT_EQ(j2.get("mode").as_string(), "cache");
  EXPECT_TRUE(j2.get("cached").as_bool());
  EXPECT_FALSE(j2.get("degraded").as_bool());
  // Same config hash, bit-identical result.
  EXPECT_EQ(j2.get("config").as_string(), j1.get("config").as_string());
  EXPECT_EQ(j2.get("result").dump(), j1.get("result").dump());

  body.force = true;
  Reply third = roundtrip(port, post_simulate(body.str()));
  ASSERT_EQ(third.status, 200);
  EXPECT_EQ(Json::parse(third.body).get("mode").as_string(), "fresh");
  // The rerun is deterministic: same virtual cluster, same result.
  EXPECT_EQ(Json::parse(third.body).get("result").dump(),
            j1.get("result").dump());

  const Json stats = fetch_stats(port);
  EXPECT_EQ(counter(stats, "admitted"), 2u);
  EXPECT_EQ(counter(stats, "completed"), 2u);
  EXPECT_EQ(counter(stats, "cache_hits"), 1u);
  server.stop();
}

TEST(ServeSimulate, TcoWorkloadIsAnsweredInlineWithoutAdmission) {
  Server server(small_pool());
  server.start();
  const Reply r = roundtrip(
      server.port(),
      post_simulate(R"({"workload":"tco","arch":"TM5600","years":4})"));
  ASSERT_EQ(r.status, 200);
  const Json j = Json::parse(r.body);
  EXPECT_EQ(j.get("mode").as_string(), "fresh");
  EXPECT_TRUE(j.get("result").get("tco").is_object());
  const Json stats = fetch_stats(server.port());
  EXPECT_EQ(counter(stats, "inline_served"), 1u);
  EXPECT_EQ(counter(stats, "admitted"), 0u);
  server.stop();
}

TEST(ServeDeadlines, ShortDeadlineReturns504AndFreesTheWorkerSlot) {
  Server server(small_pool());
  server.start();
  const std::uint16_t port = server.port();

  // A multi-second simulation with a 150 ms deadline: the watchdog cancels
  // the token, the engine unwinds with CancelledError, and the waiter gets
  // a prompt 504 instead of holding the connection for the full run.
  const Clock::time_point t0 = Clock::now();
  const Reply r =
      roundtrip(port, post_simulate(long_job(7, /*deadline_ms=*/150).str()));
  const double took =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_EQ(r.status, 504);
  EXPECT_LT(took, 30.0);  // an uncancelled run would blow well past this

  // No zombie compute: the slot must come free and accept new work.
  EXPECT_TRUE(poll_until([&] {
    return gauge(fetch_stats(port), "pool_in_flight") == 0u;
  }));
  SimBody small;
  small.seed = 8;
  EXPECT_EQ(roundtrip(port, post_simulate(small.str())).status, 200);

  const Json stats = fetch_stats(port);
  EXPECT_EQ(counter(stats, "deadline_timeouts"), 1u);
  EXPECT_EQ(counter(stats, "completed"), 1u);
  server.stop();
}

TEST(ServeOverload, SaturationShedsOrDegradesByClientPolicy) {
  ServerOptions so = small_pool();
  so.cache_fresh_seconds = 0.0;  // every cached row is instantly stale
  Server server(so);
  server.start();
  const std::uint16_t port = server.port();

  // Populate a (stale-only) session for seed 42 while the pool is empty.
  SimBody seeded;
  seeded.seed = 42;
  ASSERT_EQ(roundtrip(port, post_simulate(seeded.str())).status, 200);
  ASSERT_TRUE(poll_until([&] {
    return counter(fetch_stats(port), "completed") == 1u;
  }));

  // Saturate: L1 onto the worker (wait for pickup so the queue is provably
  // empty), then L2 into the only queue slot.
  const int fd1 = submit_async(port, long_job(101));
  ASSERT_TRUE(poll_until([&] {
    const Json s = fetch_stats(port);
    return counter(s, "admitted") == 2u && gauge(s, "pool_active") == 1u;
  }));
  const int fd2 = submit_async(port, long_job(102));
  ASSERT_TRUE(poll_until([&] {
    return counter(fetch_stats(port), "admitted") == 3u;
  }));

  // Worker busy + queue full: every further distinct config is refused by
  // admission, deterministically.
  SimBody strict;
  strict.seed = 103;
  strict.allow_degraded = false;
  Reply r = roundtrip(port, post_simulate(strict.str()));
  EXPECT_EQ(r.status, 429);
  EXPECT_TRUE(r.has_header("Retry-After: 1"));

  SimBody lenient;
  lenient.seed = 104;
  r = roundtrip(port, post_simulate(lenient.str()));
  ASSERT_EQ(r.status, 200);
  Json j = Json::parse(r.body);
  EXPECT_TRUE(j.get("degraded").as_bool());
  EXPECT_EQ(j.get("mode").as_string(), "approximate");
  EXPECT_FALSE(j.get("cached").as_bool());
  EXPECT_GT(j.get("result").get("interactions").as_number(), 0.0);

  // Seed 42 has a stale session: the ladder prefers it to the estimate.
  r = roundtrip(port, post_simulate(seeded.str()));
  ASSERT_EQ(r.status, 200);
  j = Json::parse(r.body);
  EXPECT_TRUE(j.get("degraded").as_bool());
  EXPECT_TRUE(j.get("cached").as_bool());
  EXPECT_EQ(j.get("mode").as_string(), "stale-cache");

  const Json stats = fetch_stats(port);
  EXPECT_EQ(counter(stats, "shed"), 1u);
  EXPECT_EQ(counter(stats, "degraded_approx"), 1u);
  EXPECT_EQ(counter(stats, "degraded_cached"), 1u);
  ::close(fd1);  // abandon the long jobs; disconnect-cancel reclaims them
  ::close(fd2);
  server.stop();
}

TEST(ServeCoalesce, IdenticalInFlightConfigsShareOneJob) {
  Server server(small_pool());
  server.start();
  const std::uint16_t port = server.port();

  const SimBody job = long_job(201, /*deadline_ms=*/1000);
  const int fd1 = submit_async(port, job);
  ASSERT_TRUE(poll_until([&] {
    return counter(fetch_stats(port), "admitted") == 1u;
  }));
  const int fd2 = submit_async(port, job);  // identical config: rides along
  ASSERT_TRUE(poll_until([&] {
    return counter(fetch_stats(port), "coalesced") == 1u;
  }));

  // One job, one deadline, both waiters answered (here: both 504).
  const Reply r1 = parse_reply(read_to_eof(fd1));
  const Reply r2 = parse_reply(read_to_eof(fd2));
  ::close(fd1);
  ::close(fd2);
  EXPECT_EQ(r1.status, 504);
  EXPECT_EQ(r2.status, 504);
  const Json stats = fetch_stats(port);
  EXPECT_EQ(counter(stats, "admitted"), 1u);
  EXPECT_EQ(counter(stats, "coalesced"), 1u);
  EXPECT_EQ(counter(stats, "deadline_timeouts"), 1u);  // per job, not waiter
  server.stop();
}

TEST(ServeDisconnect, AbandonedJobIsCancelledAndTheSlotReclaimed) {
  Server server(small_pool());
  server.start();
  const std::uint16_t port = server.port();

  const int fd = submit_async(port, long_job(301));
  ASSERT_TRUE(poll_until([&] {
    const Json s = fetch_stats(port);
    return counter(s, "admitted") == 1u && gauge(s, "pool_active") == 1u;
  }));
  ::close(fd);  // client vanishes mid-computation

  // Nobody wants the answer: the job's token is cancelled and the worker
  // slot comes back without waiting out the 20 s deadline.
  EXPECT_TRUE(poll_until([&] {
    const Json s = fetch_stats(port);
    return counter(s, "disconnect_cancels") == 1u &&
           gauge(s, "pool_in_flight") == 0u;
  }));
  SimBody small;
  small.seed = 302;
  EXPECT_EQ(roundtrip(port, post_simulate(small.str())).status, 200);
  server.stop();
}

TEST(ServeTimeouts, SlowClientsGet408IdleClientsGetClosed) {
  ServerOptions so = small_pool();
  so.read_timeout_seconds = 0.3;
  so.idle_timeout_seconds = 0.4;
  Server server(so);
  server.start();

  // Half a request, then silence: 408 after the read timeout, then close.
  const int slow = dial(server.port());
  ASSERT_GE(slow, 0);
  ASSERT_TRUE(send_all(slow, "GET /heal"));
  const Reply r = parse_reply(read_to_eof(slow));
  ::close(slow);
  EXPECT_EQ(r.status, 408);

  // A connection that never sends anything is closed without a response.
  const int idle = dial(server.port());
  ASSERT_GE(idle, 0);
  EXPECT_TRUE(read_to_eof(idle).empty());
  ::close(idle);

  const Json stats = fetch_stats(server.port());
  EXPECT_EQ(counter(stats, "read_timeouts"), 1u);
  server.stop();
}

TEST(ServeDrain, GracefulDrainAnswersInFlightAndRefusesNewConnections) {
  Server server(small_pool());  // drain_timeout 0.5 s
  server.start();
  const std::uint16_t port = server.port();

  const int fd = submit_async(port, long_job(401));
  ASSERT_TRUE(poll_until([&] {
    return counter(fetch_stats(port), "admitted") == 1u;
  }));

  server.request_drain();  // what the SIGTERM handler calls

  // The in-flight request is still answered: the drain deadline cancels the
  // job and the waiting client gets a 504 (not a dropped connection).
  const Reply r = parse_reply(read_to_eof(fd));
  ::close(fd);
  EXPECT_EQ(r.status, 504);

  // The listener is closed: new connections are refused.
  EXPECT_TRUE(poll_until([&] { return dial(port, 1.0) < 0; }, 10.0));

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.deadline_timeouts, 1u);
  EXPECT_EQ(stats.internal_errors, 0u);
}

/// cms workload body; `deadline_ms = 0` means the server default.
[[nodiscard]] std::string cms_body(const std::string& program, int steps,
                                   double deadline_ms = 0.0) {
  Json b = Json::object();
  b.set("workload", "cms").set("program", program).set("steps", steps);
  if (deadline_ms > 0.0) b.set("deadline_ms", deadline_ms);
  return b.dump();
}

TEST(ServeCms, CmsRunReportsCyclesWithinTheCertifiedBounds) {
  Server server(small_pool());
  server.start();
  const std::uint16_t port = server.port();

  const Reply r =
      roundtrip(port, post_simulate(cms_body("naive_daxpy_n256", 2)));
  ASSERT_EQ(r.status, 200);
  const Json body = Json::parse(r.body);
  EXPECT_EQ(body.get("status").as_string(), "ok");
  const Json& res = body.get("result");
  EXPECT_EQ(res.get("program").as_string(), "naive_daxpy_n256");
  const double cycles = res.get("total_cycles").as_number();
  EXPECT_GT(cycles, 0.0);
  EXPECT_GE(cycles, res.get("certified_lower_cycles").as_number());
  EXPECT_LE(cycles, res.get("certified_upper_cycles").as_number());
  EXPECT_GT(res.get("elapsed_seconds").as_number(), 0.0);

  server.stop();
  EXPECT_EQ(server.stats().internal_errors, 0u);
  EXPECT_EQ(server.stats().rejected_over_deadline, 0u);
}

TEST(ServeCms, UnknownProgramIsA400) {
  Server server(small_pool());
  server.start();
  const Reply r = roundtrip(server.port(),
                            post_simulate(cms_body("no_such_kernel", 1)));
  EXPECT_EQ(r.status, 400);
  server.stop();
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

TEST(ServeCms, ProvablyOverDeadlineIs422BeforeAnyPoolSubmission) {
  Server server(small_pool());
  server.start();
  const std::uint16_t port = server.port();

  // 200 certified runs against a 1 microsecond deadline: the static upper
  // bound alone proves the request can never finish in time. The refusal
  // must happen at admission — nothing may reach the JobPool.
  const Reply r = roundtrip(
      port, post_simulate(cms_body("naive_daxpy_n256", 200, 0.001)));
  EXPECT_EQ(r.status, 422);
  const Json body = Json::parse(r.body);
  EXPECT_EQ(body.get("status").as_string(), "error");
  EXPECT_NE(body.get("error").as_string().find("certified"),
            std::string::npos);

  const Json stats = fetch_stats(port);
  EXPECT_EQ(counter(stats, "rejected_over_deadline"), 1u);
  EXPECT_EQ(counter(stats, "admitted"), 0u);
  EXPECT_EQ(gauge(stats, "pool_active"), 0u);
  EXPECT_EQ(gauge(stats, "pool_in_flight"), 0u);

  // The same config with a sane deadline is served normally — the gate
  // keys on the request's own budget, not the config.
  const Reply ok =
      roundtrip(port, post_simulate(cms_body("naive_daxpy_n256", 200)));
  EXPECT_EQ(ok.status, 200);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.rejected_over_deadline, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.internal_errors, 0u);
}

/// What the descriptor-starved server saw over its one-second window.
struct StarvedReport {
  std::uint64_t accepted = 0;
  std::uint64_t accept_errors = 0;
  double cpu_seconds = 0.0;
};

[[nodiscard]] double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Child side of the descriptor-exhaustion test (no gtest macros: this runs
/// in a forked process). Runs a server under RLIMIT_NOFILE=32, reports its
/// port, waits until the parent has queued its connections, then reports
/// what one second of that backlog cost. Returns the child's exit code.
int run_starved_server(int report_fd, int go_fd) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 2;
  lim.rlim_cur = 32;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) return 2;
  try {
    Server server(small_pool());
    server.start();
    const std::uint16_t port = server.port();
    if (::write(report_fd, &port, sizeof port) != sizeof port) return 3;
    char go = 0;
    if (::read(go_fd, &go, 1) != 1) return 4;
    // Let the loop accept up to the limit before the window opens.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    StarvedReport rep;
    const std::uint64_t errors0 = server.stats().accept_errors;
    const double cpu0 = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    rep.cpu_seconds = process_cpu_seconds() - cpu0;
    rep.accept_errors = server.stats().accept_errors - errors0;
    rep.accepted = server.stats().connections_accepted;
    if (::write(report_fd, &rep, sizeof rep) != sizeof rep) return 3;
    server.stop();
  } catch (...) {
    return 5;
  }
  return 0;
}

/// Read exactly `n` bytes, giving up after `timeout_ms` without data.
[[nodiscard]] bool read_exact(int fd, void* buf, std::size_t n,
                              int timeout_ms) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) return false;
    const ssize_t got = ::read(fd, p, n);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

TEST(ServeAccept, DescriptorExhaustionBacksOffInsteadOfSpinning) {
  // With the process out of descriptors, accept() fails with EMFILE and
  // the pending connection stays queued, so a listener left in the poll
  // set makes poll() return at once, forever: one core burnt, nothing
  // counted. The server must count the failure and sit the listener out.
  int up[2];
  int down[2];
  ASSERT_EQ(::pipe(up), 0);
  ASSERT_EQ(::pipe(down), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(up[0]);
    ::close(down[1]);
    ::_exit(run_starved_server(up[1], down[0]));
  }
  ::close(up[1]);
  ::close(down[0]);
  const Fd from_child(up[0]);
  Fd to_child(down[1]);
  // Reap the child on every exit path, including a failed ASSERT.
  struct Reaper {
    pid_t pid;
    ~Reaper() {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } reaper{pid};

  std::uint16_t port = 0;
  ASSERT_TRUE(read_exact(from_child.get(), &port, sizeof port, 10000));
  std::vector<Fd> clients;
  for (int i = 0; i < 60; ++i) {
    Fd c(dial(port));
    ASSERT_TRUE(c.valid()) << "connect " << i;
    clients.push_back(std::move(c));
  }
  const char go = 1;
  ASSERT_EQ(::write(to_child.get(), &go, 1), 1);
  StarvedReport rep;
  ASSERT_TRUE(read_exact(from_child.get(), &rep, sizeof rep, 10000));
  clients.clear();
  to_child.reset();
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  reaper.pid = 0;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  EXPECT_GT(rep.accepted, 0u);
  EXPECT_LT(rep.accepted, 32u);  // the limit held: some clients wait
  // About one retry per back-off: tens per second, not tens of thousands.
  EXPECT_GE(rep.accept_errors, 1u);
  EXPECT_LE(rep.accept_errors, 100u);
  EXPECT_LT(rep.cpu_seconds, 0.5);
}

}  // namespace
}  // namespace bladed::serve
