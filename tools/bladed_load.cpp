/// bladed-load: open-loop load generator (and chaos injector) for
/// bladed-serve. Arrivals fire at the configured rate regardless of server
/// latency; a seeded fraction of them are replaced by chaos connections
/// (garbage bytes, mid-request stalls, mid-request drops). Prints a human
/// summary, or one JSON object with every counter under --json (the CI soak
/// job uploads that as its artifact).

#include <cstdio>

#include "cli.hpp"
#include "common/json.hpp"
#include "serve/loadgen.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bladed-load --port N [options]\n"
    "  --port N          bladed-serve port on 127.0.0.1 (required)\n"
    "  --rps R           open-loop arrival rate (default 20)\n"
    "  --duration SECS   open-loop length (default 5)\n"
    "  --burst N         instead: N simultaneous requests, then stop\n"
    "  --seed S          chaos/body RNG seed (same seed = same mix)\n"
    "  --p-garbage P     probability an arrival sends garbage bytes\n"
    "  --p-stall P       probability an arrival stalls mid-request\n"
    "  --p-drop P        probability an arrival drops mid-request\n"
    "  --stall SECS      how long a stalling client holds the socket\n"
    "  --timeout SECS    per-request client timeout\n"
    "  --ranks N --particles N --steps N   request shape\n"
    "  --spread N        rotate request seeds over N configs (default 8)\n"
    "  --json            machine-readable report on stdout\n";

}  // namespace

int main(int argc, char** argv) {
  bladed::serve::LoadOptions opt;
  int port = 0;
  bool json = false;
  int ranks = 4;
  int particles = 256;
  int steps = 1;
  int spread = 8;

  bladed::cli::Parser p("bladed-load", kUsage);
  p.int_value("--port", &port, 1, 65535)
      .double_value("--rps", &opt.rps, 0.001, 1e6)
      .double_value("--duration", &opt.duration_seconds, 0.0, 86400)
      .int_value("--burst", &opt.burst, 0, 1 << 20)
      .u64_value("--seed", &opt.seed)
      .double_value("--p-garbage", &opt.p_garbage, 0.0, 1.0)
      .double_value("--p-stall", &opt.p_stall, 0.0, 1.0)
      .double_value("--p-drop", &opt.p_drop, 0.0, 1.0)
      .double_value("--stall", &opt.stall_seconds, 0.0, 3600)
      .double_value("--timeout", &opt.client_timeout_seconds, 0.01, 3600)
      .int_value("--ranks", &ranks, 1, 64)
      .int_value("--particles", &particles, 64, 1000000)
      .int_value("--steps", &steps, 1, 200)
      .int_value("--spread", &spread, 1, 1 << 20)
      .flag("--json", &json);
  if (const int rc = p.parse(argc, argv); rc >= 0) return rc;
  if (port == 0) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  opt.port = static_cast<std::uint16_t>(port);
  opt.body = [ranks, particles, steps, spread](std::uint64_t i) {
    return "{\"workload\":\"treecode\",\"arch\":\"TM5600\",\"ranks\":" +
           std::to_string(ranks) +
           ",\"particles\":" + std::to_string(particles) +
           ",\"steps\":" + std::to_string(steps) + ",\"seed\":" +
           std::to_string(i % static_cast<std::uint64_t>(spread) + 1) + "}";
  };

  try {
    const bladed::serve::LoadReport r = bladed::serve::run_load(opt);
    if (json) {
      bladed::Json j = bladed::Json::object();
      j.set("sent", r.sent)
          .set("completed", r.completed)
          .set("ok", r.ok)
          .set("degraded", r.degraded)
          .set("cached", r.cached)
          .set("shed", r.shed)
          .set("timeouts", r.timeouts)
          .set("errors_4xx", r.errors_4xx)
          .set("errors_5xx", r.errors_5xx)
          .set("resets", r.resets)
          .set("client_timeouts", r.client_timeouts)
          .set("chaos_garbage", r.chaos_garbage)
          .set("chaos_stall", r.chaos_stall)
          .set("chaos_drop", r.chaos_drop)
          .set("p50_ms", r.p50_ms)
          .set("p99_ms", r.p99_ms)
          .set("max_ms", r.max_ms);
      std::printf("%s\n", j.dump().c_str());
    } else {
      std::printf(
          "bladed-load: sent=%llu completed=%llu ok=%llu degraded=%llu "
          "cached=%llu shed=%llu timeouts=%llu 4xx=%llu 5xx=%llu "
          "resets=%llu client_timeouts=%llu\n"
          "chaos: garbage=%llu stall=%llu drop=%llu\n"
          "latency: p50=%.1fms p99=%.1fms max=%.1fms (%zu samples)\n",
          static_cast<unsigned long long>(r.sent),
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.ok),
          static_cast<unsigned long long>(r.degraded),
          static_cast<unsigned long long>(r.cached),
          static_cast<unsigned long long>(r.shed),
          static_cast<unsigned long long>(r.timeouts),
          static_cast<unsigned long long>(r.errors_4xx),
          static_cast<unsigned long long>(r.errors_5xx),
          static_cast<unsigned long long>(r.resets),
          static_cast<unsigned long long>(r.client_timeouts),
          static_cast<unsigned long long>(r.chaos_garbage),
          static_cast<unsigned long long>(r.chaos_stall),
          static_cast<unsigned long long>(r.chaos_drop), r.p50_ms, r.p99_ms,
          r.max_ms, r.latencies_ms.size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bladed-load: %s\n", e.what());
    return 1;
  }
  return 0;
}
