/// `serve` phase: an in-process bladed-serve (2 workers, the CLI's queue
/// depth) driven open-loop by one single-threaded client over at most 4
/// keep-alive connections, in one-second slices that alternate between a
/// fixed nominal rate (latency) and a fixed overload rate (goodput). Every
/// request is timed from the
/// moment it was due, so a stall that delays later arrivals counts in their
/// latency; serve::run_load cannot do this (it starts the clock when its
/// per-request connection opens). Four connections cannot fill the server's
/// admission (2 workers + queue 8), so the server sheds and degrades
/// nothing even at the overload rate: goodput is the rate it finishes this
/// mix through them.
///
/// The request mix is drawn from the workload seed: treecode misses with a
/// fresh seed each, cms corpus misses with "force": true, repeats from a
/// hot set warmed during set-up (cache hits), and inline tco requests.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iterator>
#include <stdexcept>

#include "bench.hpp"
#include "cms/programs.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/sim.hpp"

namespace perfbench {
namespace {

using bladed::serve::Json;

constexpr int kWorkers = 2;
constexpr std::size_t kQueue = 8;  // bladed-serve's default --queue
constexpr int kConnections = 4;
/// Fixed offered loads in requests per second. Nominal keeps the two
/// workers lightly busy on this mix (about 20 treecode misses a second), so
/// its p99 is set by treecode misses rather than by chance pile-ups of
/// them. Overload is about twice the rate the server finishes this mix on
/// a 4-vCPU x86-64 host (~3,400 req/s), the factor serve_saturation's
/// load2x phase applies to its measured sustainable rate.
constexpr double kNominalRps = 400.0;
constexpr double kOverloadRps = 6000.0;
/// Latency limit for goodput: a non-degraded 200 counts only if it arrives
/// within this many ms of its due time.
constexpr double kLatencyLimitMs = 250.0;
/// Requests the client holds while all connections are busy; one due when
/// the backlog is full is refused (it counts as missing the limit).
constexpr std::size_t kMaxBacklog = 64;
/// Shares of the mix, in percent; the rest (70%) are hot-set repeats, so
/// p50 is a cache hit. No source fixes these shares; each is chosen for
/// what it exercises. Treecode misses are few enough that p99 falls near
/// their 80th percentile, where their latency distribution is flat, and
/// not at their 90th, next to the tail of misses waiting for a worker. The
/// cms misses run the corpus through the server's cms and certify path,
/// and tco takes the path that never reaches a worker. Each run reports
/// the shares it drew (serve.share.*).
constexpr int kPctTreeMiss = 5;
constexpr int kPctCmsMiss = 10;
constexpr int kPctTco = 15;
/// Small treecode requests: misses and hot-set entries alike. One rank
/// keeps a miss's service time compute-bound, so the nominal p99 follows
/// treecode speed rather than thread wake-ups inside the worker.
constexpr int kTreeParticles = 500;
constexpr int kTreeRanks = 1;
constexpr int kHotTree = 4;
constexpr const char* kHotCms[] = {"naive_daxpy_n256", "strided_sum_n64",
                                   "naive_mg_stencil_n32", "branchy_n16"};
/// Misses per kind whose answers are re-run directly and compared.
constexpr std::size_t kMissChecks = 6;
/// Length of one traffic slice, and the nominal and overload traffic every
/// run gets, whatever its workload. Slices of the two kinds alternate in
/// this proportion.
constexpr double kSliceS = 1.0;
constexpr double kMinNominalS = 6.0;
constexpr double kMinOverloadS = 4.0;
/// Give up on a request this long after it was due.
constexpr double kClientTimeoutS = 20.0;

enum Kind { kTreeMiss, kCmsMiss, kHit, kTco };
constexpr const char* kKindName[] = {"treecode miss", "cms miss", "hit",
                                     "tco"};

struct Request {
  Kind kind = kHit;
  std::string body;
  int hot = -1;  ///< hot-set index for hits
  double due = 0.0;
  double queued = 0.0;  ///< when the generator took it up
  double sent = 0.0;
  double done = 0.0;
  int status = 0;
  bool refused = false;  ///< client backlog full
  bool degraded = false;
  double elapsed = std::nan("");  ///< result.elapsed_seconds
  std::string result;             ///< result JSON (tco, sampled misses)
  std::string response;           ///< raw response body (traced replay)
};

/// Latencies in ms, from the due time, of the answered requests.
std::vector<double> latencies(const std::vector<Request>& reqs) {
  std::vector<double> ms;
  for (const Request& r : reqs) {
    if (!r.refused && r.status == 200) ms.push_back((r.done - r.due) * 1e3);
  }
  return ms;
}

/// Answers that count toward goodput: non-degraded 200s that arrived within
/// the latency limit of their due time.
double good(const std::vector<Request>& reqs) {
  double n = 0.0;
  for (const Request& r : reqs) {
    if (!r.refused && r.status == 200 && !r.degraded &&
        (r.done - r.due) * 1e3 <= kLatencyLimitMs) {
      n += 1.0;
    }
  }
  return n;
}

std::string post(const std::string& body) {
  return "POST /v1/simulate HTTP/1.1\r\nHost: bench\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to the in-process server failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One keep-alive client connection carrying one request at a time.
struct Conn {
  int fd = -1;
  int req = -1;  ///< index of the request in flight, -1 = idle
  std::string out;
  std::size_t out_off = 0;
  std::string in;
};

/// Parses one complete HTTP response off the front of `in`. Returns false
/// while incomplete.
bool take_response(std::string& in, int* status, std::string* body,
                   bool* close) {
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  std::size_t length = 0;
  *close = false;
  std::size_t pos = in.find("\r\n") + 2;
  while (pos < head_end) {
    const std::size_t eol = in.find("\r\n", pos);
    std::string line = in.substr(pos, eol - pos);
    std::transform(line.begin(), line.end(), line.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (line.rfind("content-length:", 0) == 0) {
      length = std::stoul(line.substr(15));
    } else if (line.rfind("connection:", 0) == 0 &&
               line.find("close") != std::string::npos) {
      *close = true;
    }
    pos = eol + 2;
  }
  if (in.size() < head_end + 4 + length) return false;
  *status = std::atoi(in.c_str() + 9);
  *body = in.substr(head_end + 4, length);
  in.erase(0, head_end + 4 + length);
  return true;
}

class ServePhase final : public Phase {
 public:
  explicit ServePhase(Run& run);
  ~ServePhase() override {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    server_.stop();
  }

  /// One slice of open-loop traffic, nominal or overload.
  void step() override;
  [[nodiscard]] double progress() const override {
    return std::min(nominal_s_ / kMinNominalS, overload_s_ / kMinOverloadS);
  }
  void finish() override;

 private:
  Request make_request();
  static std::string tree_body(std::uint64_t seed);
  static std::string cms_body(const std::string& program, bool force);
  /// Drive `reqs` (due times set) to completion; returns when every
  /// request is answered, refused or timed out.
  void drive(std::vector<Request>& reqs);
  void complete(Request& r, int status, const std::string& body);
  /// Counts each request's outcome; at the nominal rate a request the
  /// client had to refuse is a failure, under overload it is expected.
  void check(const std::vector<Request>& reqs, bool nominal);

  Run& run_;
  std::mt19937_64 rng_;
  bladed::serve::Server server_;
  Conn conns_[kConnections];
  std::vector<std::string> hot_bodies_;
  std::vector<double> hot_elapsed_;
  std::uint64_t next_seed_;
  std::vector<Request> nominal_, overload_;
  double nominal_s_ = 0.0, overload_s_ = 0.0;
  std::vector<double> goodput_;  ///< per overload slice, req/s
  std::vector<double> slice_p99_;  ///< per nominal slice, ms
  bladed::serve::ServerStats before_{};
};

bladed::serve::ServerOptions options() {
  bladed::serve::ServerOptions o;
  o.workers = kWorkers;
  o.queue_capacity = kQueue;
  return o;
}

ServePhase::ServePhase(Run& run)
    : run_(run),
      rng_(run.stream(2)),
      server_(options()),
      next_seed_(1'000'000 + run.seed * 1'000'003ULL) {
  server_.start();
  for (Conn& c : conns_) c.fd = dial(server_.port());

  // Hot set: computed directly (the expected answers) and then requested
  // once so the server caches them.
  std::vector<Request> warm;
  for (int i = 0; i < kHotTree; ++i) {
    hot_bodies_.push_back(tree_body(static_cast<std::uint64_t>(i + 1)));
  }
  for (const char* p : kHotCms) hot_bodies_.push_back(cms_body(p, false));
  for (std::size_t i = 0; i < hot_bodies_.size(); ++i) {
    std::string err;
    const auto req = bladed::serve::parse_sim_request(
        Json::parse(hot_bodies_[i]), &err);
    if (!req) throw std::runtime_error("bad hot-set request: " + err);
    hot_elapsed_.push_back(
        bladed::serve::run_simulation(*req, nullptr).virtual_seconds);
    Request w;
    w.kind = kHit;
    w.hot = static_cast<int>(i);
    w.body = hot_bodies_[i];
    w.due = now_s();
    warm.push_back(std::move(w));
  }
  drive(warm);
  for (const Request& w : warm) {
    if (w.status != 200) throw std::runtime_error("hot-set warm-up failed");
  }
}

std::string ServePhase::tree_body(std::uint64_t seed) {
  Json b = Json::object();
  b.set("workload", "treecode")
      .set("particles", kTreeParticles)
      .set("ranks", kTreeRanks)
      .set("seed", seed);
  return b.dump();
}

std::string ServePhase::cms_body(const std::string& program, bool force) {
  Json b = Json::object();
  b.set("workload", "cms").set("program", program).set("opt_level", 2);
  if (force) b.set("force", true);
  return b.dump();
}

Request ServePhase::make_request() {
  static const std::vector<bladed::cms::NamedProgram> corpus =
      bladed::cms::prove_corpus();
  Request r;
  const int roll = std::uniform_int_distribution<int>(0, 99)(rng_);
  if (roll < kPctTreeMiss) {
    r.kind = kTreeMiss;
    r.body = tree_body(next_seed_++);
  } else if (roll < kPctTreeMiss + kPctCmsMiss) {
    r.kind = kCmsMiss;
    const std::size_t p = std::uniform_int_distribution<std::size_t>(
        0, corpus.size() - 1)(rng_);
    r.body = cms_body(corpus[p].name, true);
  } else if (roll < kPctTreeMiss + kPctCmsMiss + kPctTco) {
    r.kind = kTco;
    const int years = std::uniform_int_distribution<int>(1, 8)(rng_);
    Json b = Json::object();
    b.set("workload", "tco").set("years", years);
    r.body = b.dump();
    r.hot = years;
  } else {
    r.kind = kHit;
    r.hot = std::uniform_int_distribution<int>(
        0, static_cast<int>(hot_bodies_.size()) - 1)(rng_);
    r.body = hot_bodies_[static_cast<std::size_t>(r.hot)];
  }
  return r;
}

void ServePhase::complete(Request& r, int status, const std::string& body) {
  r.done = now_s();
  r.status = status;
  if (status != 200) return;
  try {
    const Json j = Json::parse(body);
    r.degraded = j.get("degraded").as_bool();
    const Json& res = j.get("result");
    r.elapsed = res.get("elapsed_seconds").as_number();
    if (r.kind != kHit) r.result = res.dump();
    if (run_.tracer.on()) r.response = body;
  } catch (const std::exception&) {
    r.status = -1;
  }
}

void ServePhase::drive(std::vector<Request>& reqs) {
  std::deque<int> backlog;
  std::size_t next = 0, open = reqs.size();
  while (open > 0) {
    const double now = now_s();
    while (next < reqs.size() && reqs[next].due <= now) {
      Request& r = reqs[next];
      r.queued = now;
      if (backlog.size() >= kMaxBacklog) {
        r.refused = true;
        r.done = now;
        --open;
      } else {
        backlog.push_back(static_cast<int>(next));
      }
      ++next;
    }
    for (Conn& c : conns_) {
      if (c.req >= 0 || backlog.empty()) continue;
      char probe;
      if (c.fd >= 0 && ::recv(c.fd, &probe, 1, MSG_PEEK) == 0) {
        ::close(c.fd);  // the server closed it while idle
        c.fd = -1;
      }
      if (c.fd < 0) c.fd = dial(server_.port());
      c.req = backlog.front();
      backlog.pop_front();
      c.out = post(reqs[static_cast<std::size_t>(c.req)].body);
      c.out_off = 0;
      reqs[static_cast<std::size_t>(c.req)].sent = now_s();
    }
    pollfd pfd[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      const Conn& c = conns_[i];
      pfd[i].fd = c.req >= 0 ? c.fd : -1;
      pfd[i].events = static_cast<short>(
          POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
      pfd[i].revents = 0;
    }
    double wait_ms = 5.0;
    if (next < reqs.size()) {
      wait_ms = std::min(wait_ms, (reqs[next].due - now_s()) * 1e3);
    }
    ::poll(pfd, kConnections, std::max(0, static_cast<int>(wait_ms)));
    for (int i = 0; i < kConnections; ++i) {
      Conn& c = conns_[i];
      if (c.req < 0) continue;
      Request& r = reqs[static_cast<std::size_t>(c.req)];
      bool dead = false;
      if (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          dead = true;
        }
      }
      if (!dead && (pfd[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char buf[65536];
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          dead = true;
        }
      }
      int status = 0;
      std::string body;
      bool close = false;
      if (!dead && take_response(c.in, &status, &body, &close)) {
        complete(r, status, body);
        c.req = -1;
        --open;
        if (close) dead = true;
      } else if (!dead && now_s() - r.due > kClientTimeoutS) {
        dead = true;
      }
      if (dead) {
        if (c.req >= 0) {
          complete(r, -1, "");
          c.req = -1;
          --open;
        }
        ::close(c.fd);
        c.fd = -1;
        c.in.clear();
      }
    }
  }
}

void ServePhase::step() {
  if (nominal_s_ == 0.0 && overload_s_ == 0.0) before_ = server_.stats();
  const bool nominal =
      nominal_s_ / kMinNominalS <= overload_s_ / kMinOverloadS;
  std::exponential_distribution<double> gap(nominal ? kNominalRps
                                                    : kOverloadRps);
  std::vector<Request> reqs;
  const double start = now_s() + 0.01;
  for (double t = gap(rng_); t < kSliceS; t += gap(rng_)) {
    Request r = make_request();
    r.due = start + t;
    reqs.push_back(std::move(r));
  }
  drive(reqs);
  if (nominal) {
    std::vector<double> ms = latencies(reqs);
    slice_p99_.push_back(percentile(ms, 99.0));
  } else {
    goodput_.push_back(good(reqs) / kSliceS);
  }
  std::vector<Request>& out = nominal ? nominal_ : overload_;
  out.insert(out.end(), std::make_move_iterator(reqs.begin()),
             std::make_move_iterator(reqs.end()));
  (nominal ? nominal_s_ : overload_s_) += kSliceS;
}

void ServePhase::check(const std::vector<Request>& reqs, bool nominal) {
  Results& res = run_.results;
  const char* phase = nominal ? "nominal" : "overload";
  std::uint64_t attempted = 0, failed = 0;
  for (const Request& r : reqs) {
    if (r.refused && !nominal) continue;
    ++attempted;
    // 429 is the server's declared overload answer, not a failure.
    if (r.status == 429) continue;
    bool ok = r.status == 200;
    if (ok && r.kind == kHit && !r.degraded) {
      ok = r.elapsed == hot_elapsed_[static_cast<std::size_t>(r.hot)];
    }
    if (ok && r.kind == kTco) {
      std::string err;
      const auto req =
          bladed::serve::parse_sim_request(Json::parse(r.body), &err);
      ok = req && bladed::serve::run_inline(*req).result.dump() == r.result;
    }
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s %s request answered %d: %s\n", phase,
                  kKindName[r.kind], r.status, r.body.c_str());
    }
  }
  res.count(attempted, failed);
}

void ServePhase::finish() {
  Results& res = run_.results;
  Tracer& tr = run_.tracer;
  check(nominal_, true);
  check(overload_, false);

  std::vector<double> lat = latencies(nominal_), late;
  for (const auto* reqs : {&nominal_, &overload_}) {
    for (const Request& r : *reqs) late.push_back((r.queued - r.due) * 1e3);
  }
  // Latency and goodput are per-layer values, not gated end-to-end
  // metrics: they are bound by thread wake-ups across CPUs, which on a
  // shared VM double and halve with the host's load from one minute to the
  // next (see NOTES.md).
  res.layer("serve.p50_ms", "ms", summarize(lat).median);
  // p99 of each one-second slice (about 400 answers, 4 beyond it), median
  // over the slices. This host's speed swings by half from one second to
  // the next; p99 over all answers pooled follows the slowest seconds.
  res.layer("serve.p99_ms", "ms", summarize(slice_p99_).median);
  res.layer("serve.pooled_p99_ms", "ms", percentile(lat, 99.0));
  std::printf("serve nominal: %zu answers at %.0f req/s in %zu slices\n",
              lat.size(), kNominalRps, slice_p99_.size());

  // Median over the overload slices, so one host stall costs one slice.
  res.layer("serve.goodput_rps", "req/s", summarize(goodput_).median);
  std::printf("serve overload: %zu offered at %.0f req/s, %.0f good within "
              "%.0f ms\n",
              overload_.size(), kOverloadRps, good(overload_),
              kLatencyLimitMs);

  // The mix as drawn, over both rates.
  double kinds[4] = {0, 0, 0, 0};
  for (const auto* reqs : {&nominal_, &overload_}) {
    for (const Request& r : *reqs) kinds[r.kind] += 1.0;
  }
  const double all = kinds[0] + kinds[1] + kinds[2] + kinds[3];
  constexpr const char* kShare[] = {"serve.share.treecode_miss",
                                    "serve.share.cms_miss", "serve.share.hit",
                                    "serve.share.tco"};
  for (int k = 0; k < 4; ++k) res.layer(kShare[k], "ratio", kinds[k] / all);

  // Misses: re-run a seeded sample directly and compare the answers.
  std::vector<double> exec_ms[2];
  for (Kind k : {kTreeMiss, kCmsMiss}) {
    std::vector<const Request*> done;
    for (const Request& r : nominal_) {
      if (r.kind == k && r.status == 200 && !r.degraded) done.push_back(&r);
    }
    std::shuffle(done.begin(), done.end(), rng_);
    done.resize(std::min(done.size(), kMissChecks));
    for (const Request* r : done) {
      std::string err;
      const auto req =
          bladed::serve::parse_sim_request(Json::parse(r->body), &err);
      const double t0 = now_s();
      const bladed::serve::SimOutcome out =
          bladed::serve::run_simulation(*req, nullptr);
      exec_ms[k].push_back((now_s() - t0) * 1e3);
      res.check(out.virtual_seconds == r->elapsed,
                std::string("serve ") + kKindName[k] +
                    " answer equals a direct run_simulation");
    }
  }

  const bladed::serve::ServerStats s = server_.stats();
  const double hits = double(s.cache_hits - before_.cache_hits);
  const double misses = double(s.completed - before_.completed);
  res.layer("serve.cache_hit_ratio", "ratio", hits / (hits + misses));
  res.layer("serve.coalesced", "count", double(s.coalesced - before_.coalesced));
  res.layer("serve.shed", "count", double(s.shed - before_.shed));
  res.layer("serve.degraded", "count",
            double(s.degraded_cached + s.degraded_approx -
                   before_.degraded_cached - before_.degraded_approx));
  res.layer("serve.gen_late_ms", "ms", percentile(late, 99.0));
  if (!tr.on()) return;

  // Layer split of each nominal request. The server runs in this process
  // but on its own threads, so its steps are timed by calling the same
  // public functions on the same inputs here.
  std::vector<double> parse_us, dump_us, inline_us, rest_ms;
  const double exec_med[2] = {summarize(exec_ms[0]).median,
                              summarize(exec_ms[1]).median};
  std::uint64_t id = 0;
  for (const Request& r : nominal_) {
    ++id;
    if (r.refused || r.status != 200) continue;
    double t0 = now_s();
    std::string err;
    const auto req =
        bladed::serve::parse_sim_request(Json::parse(r.body), &err);
    const double parse = now_s() - t0;
    const Json resp = Json::parse(r.response);
    t0 = now_s();
    const std::string dumped = resp.dump();
    const double dump = now_s() - t0;
    double exec = 0.0;
    if (r.kind == kTco) {
      t0 = now_s();
      (void)bladed::serve::run_inline(*req);
      exec = now_s() - t0;
      inline_us.push_back(exec * 1e6);
    } else if (r.kind == kTreeMiss || r.kind == kCmsMiss) {
      exec = exec_med[r.kind] * 1e-3;
    }
    parse_us.push_back(parse * 1e6);
    dump_us.push_back(dump * 1e6);
    const double in_server = r.done - r.sent;
    rest_ms.push_back((r.done - r.due - parse - dump - exec) * 1e3);

    // The generator's lateness and the wait for one of the 4 connections
    // are the client's, not a layer under src/; only the round trip
    // through the server is booked to serve.
    const int top = tr.add({"serve:request", "unattributed", r.due, r.done,
                            -1, id, false});
    tr.add({"client: wait for a free connection", "client", r.queued, r.sent,
            top, id, false});
    const int srv = tr.add({"serve::Server round trip", "serve", r.sent,
                            r.done, top, id, false});
    if (r.kind == kTreeMiss || r.kind == kCmsMiss) {
      const double d = std::min(exec, in_server);
      tr.add({"serve::run_simulation (estimated)",
              r.kind == kTreeMiss ? "treecode" : "cms", r.sent, r.sent + d,
              srv, id, true});
    }
  }
  res.layer("serve.parse_us", "us", summarize(parse_us).median);
  res.layer("serve.serialize_us", "us", summarize(dump_us).median);
  res.layer("serve.inline_us", "us", summarize(inline_us).median);
  res.layer("serve.execute_ms.treecode", "ms", exec_med[0]);
  res.layer("serve.execute_ms.cms", "ms", exec_med[1]);
  res.layer("serve.unattributed_ms", "ms", summarize(rest_ms).median);
}

}  // namespace

std::unique_ptr<Phase> make_serve(Run& run) {
  return std::make_unique<ServePhase>(run);
}

}  // namespace perfbench
