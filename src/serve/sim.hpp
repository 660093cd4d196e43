#pragma once

/// Request schema and execution bridge between the HTTP surface and the
/// simulator: a validated SimRequest (strict field/range checks -> 400s),
/// a canonical FNV-1a config hash (the session/cache key), the real
/// simulation runner (treecode on the virtual cluster, cancellable through
/// simnet::Cluster::Config::cancel), the pure-model TCO evaluation, and the
/// cheap analytic estimator used as the degraded answer under overload.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common/json.hpp"

namespace bladed::serve {

struct SimRequest {
  /// "treecode": real parallel N-body run on the simulated cluster
  ///             (executes on a JobPool worker; cancellable).
  /// "tco":      total-cost-of-ownership model for a preset/derived cluster
  ///             (pure arithmetic; answered inline on the event loop).
  /// "cms":      a corpus CMS program on the morphing engine, `steps`
  ///             independent certified runs (executes on a JobPool worker;
  ///             admission is gated by the bladed::wcet certificate — a
  ///             request whose certified bound already exceeds its deadline
  ///             is refused with 422 before submission).
  std::string workload = "treecode";
  std::string arch = "TM5600";  ///< arch::by_short_name key
  int ranks = 24;
  std::int64_t particles = 4000;
  int steps = 1;
  std::uint64_t seed = 1;
  int ic_kind = 0;
  /// Compute width of this job inside the worker (Cluster host_threads).
  int host_threads = 1;
  double years = 4.0;  ///< TCO operating period
  // cms workload only.
  std::string program;  ///< cms::prove_corpus program name
  int opt_level = 2;    ///< verified pipeline level the engine runs at

  // Per-request serving policy (not part of the config hash).
  double deadline_ms = 0.0;    ///< 0 = server default
  bool allow_degraded = true;  ///< accept cached/approximate under overload
  bool force = false;          ///< bypass the result cache
  bool want_tco = false;       ///< attach the TCO table to a treecode run

  /// True for workloads executed inline on the event loop (no admission).
  [[nodiscard]] bool inline_workload() const { return workload == "tco"; }

  /// FNV-1a over the canonical config fields (everything that changes the
  /// simulation's result; serving policy excluded). Hex-printed in
  /// responses as "config".
  [[nodiscard]] std::uint64_t config_hash() const;
  [[nodiscard]] std::string config_hash_hex() const;
};

/// Parse + validate a /v1/simulate body. Returns std::nullopt and sets
/// `error` (a human-readable 400 reason) on any unknown field, wrong type
/// or out-of-range value — unknown fields are rejected, not ignored, so
/// client typos fail loudly.
[[nodiscard]] std::optional<SimRequest> parse_sim_request(
    const Json& body, std::string* error);

struct SimOutcome {
  Json result;                   ///< response "result" object
  double virtual_seconds = 0.0;  ///< simulated elapsed time (deterministic)
};

/// Execute the (non-inline) simulation for real. Throws CancelledError when
/// `cancel` fires mid-run; may throw SimulationError on internal failure.
[[nodiscard]] SimOutcome run_simulation(const SimRequest& req,
                                        const std::atomic<bool>* cancel);

/// Inline workloads ("tco"): evaluated immediately, microseconds.
[[nodiscard]] SimOutcome run_inline(const SimRequest& req);

/// Analytic stand-in for a treecode run: prices an estimated interaction
/// count through the arch cost model instead of simulating. Used as the
/// degraded answer when the pool is saturated and no cached result exists.
[[nodiscard]] SimOutcome approximate_simulation(const SimRequest& req);

/// TCO table for the preset cluster whose CPU matches `arch` (24-node
/// MetaBlade-style chassis); null Json when no preset uses that CPU.
[[nodiscard]] Json tco_for_arch(const std::string& arch, double years);

/// bladed::wcet certificate for a "cms" request, totalled over its `steps`
/// fresh engine runs and priced in simulated seconds on the request arch's
/// clock. `bounded == false` (non-cms request, or no trip-count license)
/// means there is no static cost statement and admission proceeds as usual.
struct CmsCertification {
  bool bounded = false;
  std::uint64_t upper_cycles = 0;  ///< certified tier-2 total, all steps
  std::uint64_t lower_cycles = 0;
  double upper_seconds = 0.0;  ///< upper_cycles at the arch clock
};

/// Certify the cms workload of `req` (validated request). Deterministic and
/// cheap enough for the event loop; the server memoizes per config hash.
[[nodiscard]] CmsCertification certify_cms(const SimRequest& req);

}  // namespace bladed::serve
