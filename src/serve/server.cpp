#include "serve/server.hpp"

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"

namespace bladed::serve {

namespace {

std::atomic<Server*> g_signal_server{nullptr};

void on_drain_signal(int) {
  if (Server* s = g_signal_server.load(std::memory_order_relaxed)) {
    s->request_drain();
  }
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

constexpr Clock::time_point kNever = Clock::time_point::max();

/// How long the listener sits out after accept() fails for lack of
/// descriptors or memory. The failed connection stays queued, so polling
/// the listener again at once would return at once, in a loop.
constexpr std::chrono::milliseconds kAcceptBackoff{100};

[[nodiscard]] bool out_of_resources(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

/// Descriptors the server holds besides its connections: stdin, stdout,
/// stderr, the listener and both ends of the wake-up pipe.
constexpr std::size_t kOwnDescriptors = 6;

/// `wanted` connections, or fewer when the descriptor limit leaves no room
/// for that many. Connections beyond the limit could only fail in accept().
[[nodiscard]] std::size_t clamp_to_fd_limit(std::size_t wanted) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0 || lim.rlim_cur == RLIM_INFINITY) {
    return wanted;
  }
  const std::size_t room =
      lim.rlim_cur > kOwnDescriptors + 1 ? lim.rlim_cur - kOwnDescriptors : 1;
  if (wanted <= room) return wanted;
  std::fprintf(stderr,
               "bladed-serve: max connections %zu clamped to %zu "
               "(RLIMIT_NOFILE %llu less %zu descriptors of its own)\n",
               wanted, room, static_cast<unsigned long long>(lim.rlim_cur),
               kOwnDescriptors);
  return room;
}

#ifndef POLLRDHUP
#define BLADED_POLLRDHUP 0
#else
#define BLADED_POLLRDHUP POLLRDHUP
#endif

}  // namespace

Server::Server(ServerOptions opt)
    : opt_(opt),
      listener_(opt.port),
      pool_({.threads = opt.workers, .queue_capacity = opt.queue_capacity}) {
  opt_.max_connections = clamp_to_fd_limit(opt_.max_connections);
}

Server::~Server() {
  stop();
  Server* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
}

void Server::install_signal_handlers(Server* s) {
  g_signal_server.store(s, std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_handler = s != nullptr ? on_drain_signal : SIG_DFL;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void Server::run() { loop(); }

void Server::start() {
  BLADED_REQUIRE_MSG(!started_, "Server::start called twice");
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void Server::stop() {
  request_drain();
  if (started_) {
    thread_.join();
    started_ = false;
  }
}

void Server::request_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  wakeup_.notify();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> l(stats_mu_);
  return stats_;
}

void Server::bump(std::uint64_t ServerStats::* field) {
  std::lock_guard<std::mutex> l(stats_mu_);
  stats_.*field += 1;
}

void Server::loop() {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> ids;
  bool forced_cancel = false;

  for (;;) {
    if (drain_requested_.load(std::memory_order_relaxed) && !draining_) {
      begin_drain();
    }
    process_completions();
    const Clock::time_point now = Clock::now();
    scan_timeouts(now);

    if (draining_) {
      if (conns_.empty() && pending_.empty()) break;
      if (!forced_cancel && now >= drain_deadline_) {
        force_cancel_pending();
        forced_cancel = true;
      }
      // Hard stop: cancelled jobs unwind at their next engine transition;
      // anything still here is answered by teardown below.
      if (now >= drain_deadline_ + secs(5.0)) break;
    }

    pfds.clear();
    ids.clear();
    pfds.push_back({wakeup_.read_fd(), POLLIN, 0});
    int listener_idx = -1;
    if (listener_.open() && conns_.size() < opt_.max_connections &&
        now >= accept_resume_) {
      listener_idx = static_cast<int>(pfds.size());
      pfds.push_back({listener_.fd(), POLLIN, 0});
    }
    const std::size_t conn_base = pfds.size();
    Clock::time_point next_expiry = kNever;
    for (auto& [id, c] : conns_) {
      short ev = 0;
      switch (c.st) {
        case Conn::St::kReading:
          ev = POLLIN;
          break;
        case Conn::St::kWriting:
          ev = POLLOUT;
          break;
        case Conn::St::kBusy:
          ev = BLADED_POLLRDHUP;
          break;
      }
      pfds.push_back({c.sock.get(), ev, 0});
      ids.push_back(id);
      if (c.st != Conn::St::kBusy) next_expiry = std::min(next_expiry, c.expires);
    }
    if (draining_) next_expiry = std::min(next_expiry, drain_deadline_);
    if (now < accept_resume_) {
      next_expiry = std::min(next_expiry, accept_resume_);
    }

    int timeout_ms = 250;
    if (next_expiry != kNever) {
      const auto dt = std::chrono::duration_cast<std::chrono::milliseconds>(
                          next_expiry - now)
                          .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(dt, 0, 250));
    }
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                          timeout_ms);
    if (rc < 0 && errno != EINTR) break;  // poll itself failed; bail out
    if (rc <= 0) continue;

    if ((pfds[0].revents & POLLIN) != 0) wakeup_.drain();
    if (listener_idx >= 0 && (pfds[listener_idx].revents & POLLIN) != 0) {
      accept_new();
    }
    for (std::size_t i = conn_base; i < pfds.size(); ++i) {
      const short re = pfds[i].revents;
      if (re == 0) continue;
      const std::uint64_t id = ids[i - conn_base];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      switch (c.st) {
        case Conn::St::kBusy:
          if ((re & (BLADED_POLLRDHUP | POLLHUP | POLLERR)) != 0) {
            remove_waiter(c.busy_job, id);
            drop_conn(id, true);
          }
          break;
        case Conn::St::kWriting:
          if ((re & (POLLERR | POLLHUP)) != 0) {
            drop_conn(id, true);
            break;
          }
          if ((re & POLLOUT) != 0) {
            if (!flush(c)) {
              drop_conn(id, true);
            } else if (c.out_off == c.out.size()) {
              finish_write(id, c);
              if (conns_.count(id) != 0) process_input(id, conns_.at(id));
            }
          }
          break;
        case Conn::St::kReading:
          handle_readable(id, c);
          break;
      }
    }
  }

  // Teardown: no more events will be processed; close everything and join
  // the pool (cancelled jobs finish fast, queued jobs still run once).
  conns_.clear();
  pool_.shutdown();
  process_completions();  // absorb final completions (no conns left)
}

void Server::accept_new() {
  for (;;) {
    if (conns_.size() >= opt_.max_connections) return;
    const int fd = listener_.accept_one();
    if (fd == -EAGAIN || fd == -EWOULDBLOCK || fd == -EINTR) return;
    if (fd < 0) {
      bump(&ServerStats::accept_errors);
      if (out_of_resources(-fd)) {
        accept_resume_ = Clock::now() + kAcceptBackoff;
      }
      return;
    }
    const std::uint64_t id = next_conn_id_++;
    auto [it, ok] = conns_.emplace(id, Conn(Fd(fd), opt_.http));
    it->second.expires = Clock::now() + secs(opt_.idle_timeout_seconds);
    bump(&ServerStats::connections_accepted);
  }
}

void Server::handle_readable(std::uint64_t id, Conn& c) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(c.sock.get(), buf, sizeof buf, 0);
    if (n > 0) {
      if (!c.mid_request) {
        c.mid_request = true;
        c.expires = Clock::now() + secs(opt_.read_timeout_seconds);
      }
      c.in.append(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof buf)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      drop_conn(id, c.mid_request);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    drop_conn(id, true);
    return;
  }
  process_input(id, c);
}

void Server::process_input(std::uint64_t id, Conn& c) {
  while (c.st == Conn::St::kReading && !c.in.empty()) {
    const std::size_t consumed = c.parser.feed(c.in);
    c.in.erase(0, consumed);
    switch (c.parser.state()) {
      case HttpParser::State::kComplete: {
        bump(&ServerStats::requests);
        const HttpRequest req = c.parser.request();
        c.parser.reset();
        c.mid_request = false;
        dispatch(id, c, req);
        if (conns_.count(id) == 0) return;  // dropped while responding
        continue;  // st may be kReading again (pipelined request follows)
      }
      case HttpParser::State::kError: {
        bump(&ServerStats::parse_errors);
        c.close_after_write = true;
        respond_error(id, c, c.parser.error_status(),
                      c.parser.error_reason());
        return;
      }
      default:
        return;  // need more bytes
    }
  }
}

void Server::dispatch(std::uint64_t id, Conn& c, const HttpRequest& req) {
  c.close_after_write = !req.keep_alive || draining_;
  c.head_only = req.method == "HEAD";
  if (req.method == "GET" || req.method == "HEAD") {
    if (req.target == "/healthz") {
      Json b = Json::object();
      b.set("status", "ok");
      respond(id, c, 200, b);
    } else if (req.target == "/readyz") {
      Json b = Json::object();
      if (draining_) {
        b.set("status", "draining");
        respond(id, c, 503, b);
      } else if (pool_.in_flight() >=
                 static_cast<std::size_t>(pool_.threads()) +
                     pool_.queue_capacity()) {
        b.set("status", "overloaded");
        respond(id, c, 503, b,
                {"Retry-After: " + std::to_string(opt_.retry_after_seconds)});
      } else {
        b.set("status", "ready");
        respond(id, c, 200, b);
      }
    } else if (req.target == "/stats") {
      respond(id, c, 200, stats_json());
    } else if (req.target == "/v1/simulate") {
      respond_error(id, c, 405, "use POST /v1/simulate", {"Allow: POST"});
    } else {
      respond_error(id, c, 404, "unknown path " + req.target);
    }
    return;
  }
  if (req.method == "POST") {
    if (req.target == "/v1/simulate") {
      handle_simulate(id, c, req);
    } else {
      respond_error(id, c, 404, "unknown path " + req.target);
    }
    return;
  }
  respond_error(id, c, 405, "method not allowed",
                {"Allow: GET, HEAD, POST"});
}

void Server::handle_simulate(std::uint64_t id, Conn& c,
                             const HttpRequest& req) {
  const std::string retry_hdr =
      "Retry-After: " + std::to_string(opt_.retry_after_seconds);
  if (draining_) {
    bump(&ServerStats::rejected_draining);
    respond_error(id, c, 503, "server is draining", {retry_hdr});
    return;
  }
  Json body;
  try {
    body = Json::parse(req.body);
  } catch (const JsonError& e) {
    bump(&ServerStats::bad_requests);
    respond_error(id, c, 400, std::string("invalid JSON: ") + e.what());
    return;
  }
  std::string perr;
  const std::optional<SimRequest> sim = parse_sim_request(body, &perr);
  if (!sim.has_value()) {
    bump(&ServerStats::bad_requests);
    respond_error(id, c, 400, perr);
    return;
  }

  if (sim->inline_workload()) {
    bump(&ServerStats::inline_served);
    respond(id, c, 200, make_body(*sim, run_inline(*sim).result,
                                  /*cached=*/false, /*degraded=*/false,
                                  "fresh"));
    return;
  }

  const std::uint64_t hash = sim->config_hash();
  const std::string hex = sim->config_hash_hex();
  const Clock::time_point now = Clock::now();

  auto sit = sessions_.find(hash);
  if (!sim->force && sit != sessions_.end() && sit->second.has_result &&
      now - sit->second.computed <= secs(opt_.cache_fresh_seconds)) {
    Session& s = sit->second;
    ++s.hits;
    s.used = now;
    bump(&ServerStats::cache_hits);
    respond(id, c, 200, make_body(*sim, s.result, true, false, "cache"));
    return;
  }

  const double deadline = sim->deadline_ms > 0.0
                              ? sim->deadline_ms / 1000.0
                              : opt_.default_deadline_seconds;

  // bladed::wcet admission gate: a cms request whose certified worst case
  // already exceeds its own deadline can only ever time out — refuse it up
  // front (422: the request is unsatisfiable, unlike 429's "busy") before
  // it costs a pool slot or a coalesce wait.
  if (sim->workload == "cms") {
    const CmsCertification& cert = certify_for(hash, *sim);
    if (cert.bounded && cert.upper_seconds > deadline) {
      bump(&ServerStats::rejected_over_deadline);
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "certified worst case %.6fs exceeds deadline %.6fs "
                    "(upper bound %llu cycles)",
                    cert.upper_seconds, deadline,
                    static_cast<unsigned long long>(cert.upper_cycles));
      respond_error(id, c, 422, msg);
      return;
    }
  }

  // Coalesce onto an identical in-flight config: the rider gets the same
  // fresh result without a second job (and shares the job's deadline).
  if (!sim->force) {
    auto rit = running_by_hash_.find(hash);
    if (rit != running_by_hash_.end()) {
      auto pit = pending_.find(rit->second);
      if (pit != pending_.end()) {
        pit->second.waiters.push_back({id});
        c.st = Conn::St::kBusy;
        c.busy_job = rit->second;
        c.expires = kNever;
        bump(&ServerStats::coalesced);
        return;
      }
    }
  }

  auto token = std::make_shared<hostperf::CancelToken>();
  const std::uint64_t job_id = next_job_id_++;
  const SimRequest jreq = *sim;
  auto fn = [this, job_id, jreq, token] {
    Completion done;
    done.job_id = job_id;
    try {
      if (token->cancelled()) {  // deadline fired while queued
        done.cancelled = true;
      } else {
        SimOutcome o = run_simulation(jreq, token->flag());
        done.ok = true;
        done.result = std::move(o.result);
        done.virtual_seconds = o.virtual_seconds;
      }
    } catch (const CancelledError&) {
      done.cancelled = true;
    } catch (const std::exception& e) {
      done.error = e.what();
    }
    {
      std::lock_guard<std::mutex> l(done_mu_);
      done_.push_back(std::move(done));
    }
    wakeup_.notify();
  };

  switch (pool_.try_submit(std::move(fn), token, deadline)) {
    case hostperf::JobPool::Submit::kAccepted: {
      PendingJob pj;
      pj.hash = hash;
      pj.hex = hex;
      pj.token = std::move(token);
      pj.waiters.push_back({id});
      pending_.emplace(job_id, std::move(pj));
      running_by_hash_[hash] = job_id;
      (void)touch_session(hash, hex);
      c.st = Conn::St::kBusy;
      c.busy_job = job_id;
      c.expires = kNever;
      bump(&ServerStats::admitted);
      return;
    }
    case hostperf::JobPool::Submit::kQueueFull: {
      // Degradation ladder: stale cached result, then the analytic
      // estimate, then shed.
      if (sim->allow_degraded && sit != sessions_.end() &&
          sit->second.has_result) {
        Session& s = sit->second;
        ++s.hits;
        s.used = now;
        bump(&ServerStats::degraded_cached);
        respond(id, c, 200,
                make_body(*sim, s.result, true, true, "stale-cache"));
        return;
      }
      if (sim->allow_degraded) {
        bump(&ServerStats::degraded_approx);
        respond(id, c, 200,
                make_body(*sim, approximate_simulation(*sim).result, false,
                          true, "approximate"));
        return;
      }
      bump(&ServerStats::shed);
      respond_error(id, c, 429, "saturated: workers busy and queue full",
                    {retry_hdr});
      return;
    }
    case hostperf::JobPool::Submit::kShuttingDown:
      bump(&ServerStats::rejected_draining);
      respond_error(id, c, 503, "server is shutting down", {retry_hdr});
      return;
  }
}

Json Server::make_body(const SimRequest& req, const Json& result, bool cached,
                       bool degraded, std::string_view mode) const {
  Json b = Json::object();
  b.set("status", "ok")
      .set("config", req.config_hash_hex())
      .set("cached", cached)
      .set("degraded", degraded)
      .set("mode", std::string(mode))
      .set("result", result);
  return b;
}

void Server::respond(std::uint64_t id, Conn& c, int status, const Json& body,
                     const std::vector<std::string>& extra) {
  const bool keep = !c.close_after_write;
  queue_response(id, c,
                 http_response(status, "application/json", body.dump(), keep,
                               extra, c.head_only));
}

void Server::respond_error(std::uint64_t id, Conn& c, int status,
                           std::string_view message,
                           const std::vector<std::string>& extra) {
  Json b = Json::object();
  b.set("status", "error").set("error", std::string(message));
  respond(id, c, status, b, extra);
}

void Server::queue_response(std::uint64_t id, Conn& c, std::string bytes) {
  c.out.append(bytes);
  c.st = Conn::St::kWriting;
  c.busy_job = 0;
  c.expires = Clock::now() + secs(opt_.write_timeout_seconds);
  if (!flush(c)) {
    drop_conn(id, true);
    return;
  }
  if (c.out_off == c.out.size()) finish_write(id, c);
}

bool Server::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n =
        ::send(c.sock.get(), c.out.data() + c.out_off,
               c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  return true;
}

void Server::finish_write(std::uint64_t id, Conn& c) {
  c.out.clear();
  c.out_off = 0;
  c.head_only = false;
  if (c.close_after_write || draining_) {
    drop_conn(id, false);
    return;
  }
  c.st = Conn::St::kReading;
  c.mid_request = !c.in.empty();
  c.expires = Clock::now() + secs(c.in.empty() ? opt_.idle_timeout_seconds
                                               : opt_.read_timeout_seconds);
}

void Server::drop_conn(std::uint64_t id, bool count_drop) {
  conns_.erase(id);
  accept_resume_ = {};  // a descriptor came free: accept again at once
  if (count_drop) bump(&ServerStats::connections_dropped);
}

void Server::remove_waiter(std::uint64_t job_id, std::uint64_t conn_id) {
  auto pit = pending_.find(job_id);
  if (pit == pending_.end()) return;
  auto& ws = pit->second.waiters;
  ws.erase(std::remove_if(ws.begin(), ws.end(),
                          [&](const Waiter& w) {
                            return w.conn_id == conn_id;
                          }),
           ws.end());
  if (ws.empty()) {
    // Nobody wants this answer any more: cancel, free the worker slot.
    pit->second.token->cancel();
    bump(&ServerStats::disconnect_cancels);
  }
}

void Server::process_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> l(done_mu_);
    batch.swap(done_);
  }
  for (Completion& done : batch) {
    auto pit = pending_.find(done.job_id);
    if (pit == pending_.end()) continue;
    PendingJob pj = std::move(pit->second);
    pending_.erase(pit);
    auto rit = running_by_hash_.find(pj.hash);
    if (rit != running_by_hash_.end() && rit->second == done.job_id) {
      running_by_hash_.erase(rit);
    }
    const Clock::time_point now = Clock::now();
    if (done.ok) {
      Session& s = touch_session(pj.hash, pj.hex);
      s.result = std::move(done.result);
      s.virtual_seconds = done.virtual_seconds;
      s.has_result = true;
      s.computed = s.used = now;
      ++s.runs;
      bump(&ServerStats::completed);
    } else if (done.cancelled && !pj.waiters.empty()) {
      bump(&ServerStats::deadline_timeouts);
    } else if (!done.cancelled) {
      bump(&ServerStats::internal_errors);
    }
    for (const Waiter& w : pj.waiters) {
      auto cit = conns_.find(w.conn_id);
      if (cit == conns_.end()) continue;
      Conn& c = cit->second;
      if (c.st != Conn::St::kBusy || c.busy_job != done.job_id) continue;
      if (done.ok) {
        const Session& s = sessions_.at(pj.hash);
        Json b = Json::object();
        b.set("status", "ok")
            .set("config", pj.hex)
            .set("cached", false)
            .set("degraded", false)
            .set("mode", "fresh")
            .set("result", s.result);
        respond(w.conn_id, c, 200, b);
      } else if (done.cancelled) {
        respond_error(w.conn_id, c, 504,
                      "deadline exceeded before the simulation finished");
      } else {
        respond_error(w.conn_id, c, 500, done.error);
      }
    }
  }
}

void Server::scan_timeouts(Clock::time_point now) {
  std::vector<std::uint64_t> slow, idle, stuck;
  for (auto& [id, c] : conns_) {
    if (c.st == Conn::St::kBusy || now < c.expires) continue;
    if (c.st == Conn::St::kReading) {
      (c.mid_request ? slow : idle).push_back(id);
    } else {
      stuck.push_back(id);
    }
  }
  for (const std::uint64_t id : slow) {
    Conn& c = conns_.at(id);
    bump(&ServerStats::read_timeouts);
    c.close_after_write = true;
    respond_error(id, c, 408, "request not received within the read timeout");
  }
  for (const std::uint64_t id : idle) drop_conn(id, false);
  for (const std::uint64_t id : stuck) {
    bump(&ServerStats::write_timeouts);
    drop_conn(id, true);
  }
}

void Server::begin_drain() {
  draining_ = true;
  drain_deadline_ = Clock::now() + secs(opt_.drain_timeout_seconds);
  listener_.close();
  std::vector<std::uint64_t> idle;
  for (auto& [id, c] : conns_) {
    if (c.st == Conn::St::kReading && !c.mid_request && c.in.empty()) {
      idle.push_back(id);
    } else {
      c.close_after_write = true;  // close once the current exchange ends
    }
  }
  for (const std::uint64_t id : idle) drop_conn(id, false);
}

void Server::force_cancel_pending() {
  for (auto& [job_id, pj] : pending_) pj.token->cancel();
}

const CmsCertification& Server::certify_for(std::uint64_t hash,
                                            const SimRequest& req) {
  auto it = certs_.find(hash);
  if (it == certs_.end()) it = certs_.emplace(hash, certify_cms(req)).first;
  return it->second;
}

Server::Session& Server::touch_session(std::uint64_t hash,
                                       const std::string& hex) {
  auto it = sessions_.find(hash);
  if (it == sessions_.end()) {
    if (sessions_.size() >= opt_.cache_capacity && !sessions_.empty()) {
      auto lru = sessions_.begin();
      for (auto sit = sessions_.begin(); sit != sessions_.end(); ++sit) {
        if (sit->second.used < lru->second.used) lru = sit;
      }
      sessions_.erase(lru);
    }
    it = sessions_.emplace(hash, Session{}).first;
    it->second.hex = hex;
  }
  it->second.used = Clock::now();
  return it->second;
}

Json Server::stats_json() {
  const ServerStats s = stats();
  Json j = Json::object();
  j.set("connections_accepted", s.connections_accepted)
      .set("connections_dropped", s.connections_dropped)
      .set("accept_errors", s.accept_errors)
      .set("requests", s.requests)
      .set("parse_errors", s.parse_errors)
      .set("bad_requests", s.bad_requests)
      .set("inline_served", s.inline_served)
      .set("admitted", s.admitted)
      .set("coalesced", s.coalesced)
      .set("completed", s.completed)
      .set("cache_hits", s.cache_hits)
      .set("degraded_cached", s.degraded_cached)
      .set("degraded_approx", s.degraded_approx)
      .set("shed", s.shed)
      .set("rejected_draining", s.rejected_draining)
      .set("rejected_over_deadline", s.rejected_over_deadline)
      .set("deadline_timeouts", s.deadline_timeouts)
      .set("disconnect_cancels", s.disconnect_cancels)
      .set("read_timeouts", s.read_timeouts)
      .set("write_timeouts", s.write_timeouts)
      .set("internal_errors", s.internal_errors);
  Json g = Json::object();
  g.set("connections", static_cast<std::uint64_t>(conns_.size()))
      .set("sessions", static_cast<std::uint64_t>(sessions_.size()))
      .set("pending_jobs", static_cast<std::uint64_t>(pending_.size()))
      .set("pool_threads", static_cast<std::uint64_t>(pool_.threads()))
      .set("pool_queue_capacity",
           static_cast<std::uint64_t>(pool_.queue_capacity()))
      .set("pool_active", static_cast<std::uint64_t>(pool_.active()))
      .set("pool_in_flight", static_cast<std::uint64_t>(pool_.in_flight()))
      .set("draining", draining_);
  j.set("gauges", g);
  return j;
}

}  // namespace bladed::serve
