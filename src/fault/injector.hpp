#pragma once

/// FaultInjector answers the Cluster engine's questions at virtual-time
/// precision: "when does node n crash?", "is node n hung at t?", "what
/// happens to transmission attempt k of message m on link a->b at t?".
/// Decisions are pure functions of (schedule, seed, src, dst, message id,
/// attempt), so replaying a run from the same seed executes bit-identical
/// faults regardless of thread scheduling. The engine records every executed
/// fault action into a trace for exactly that assertion.

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault.hpp"

namespace bladed::fault {

/// Counters of executed (not merely scheduled) fault actions.
struct FaultStats {
  std::uint64_t drops = 0;           ///< transmissions dropped on a link
  std::uint64_t retransmits = 0;     ///< backoff retransmissions performed
  std::uint64_t corruptions = 0;     ///< payloads corrupted in flight
  std::uint64_t crc_rejects = 0;     ///< corruptions caught by CRC32 framing
  std::uint64_t messages_lost = 0;   ///< gave up after max_attempts
  std::uint64_t bytes_lost = 0;      ///< payload bytes of those messages
  std::uint64_t crashes = 0;         ///< nodes that died
  std::uint64_t hangs = 0;           ///< hang windows a node stalled through
  std::uint64_t delays = 0;          ///< messages given extra transit delay
  double delay_seconds = 0.0;        ///< total extra transit delay
  double hang_seconds = 0.0;         ///< total stall time from hangs

  FaultStats& operator+=(const FaultStats& o);
};

/// What the transport did, at which (attempt-local) virtual time — the
/// recovery trace. Two runs from one seed must produce identical traces.
struct ExecutedFault {
  enum class Action {
    kDrop,        ///< attempt dropped on the link
    kRetransmit,  ///< sender backoff retransmission
    kCorrupt,     ///< payload corrupted in flight, caught by CRC, nacked
    kDelay,       ///< transient extra delivery delay
    kLost,        ///< all attempts exhausted; message abandoned
    kCrash,       ///< node died
    kHang,        ///< node stalled through a hang window
  };
  double time = 0.0;
  Action action = Action::kDrop;
  int node = -1;  ///< acting node (sender / crashed / hung)
  int peer = -1;  ///< other endpoint, -1 when not a link action
  int attempt = 0;

  bool operator==(const ExecutedFault&) const = default;
};

[[nodiscard]] const char* to_string(ExecutedFault::Action a);

class FaultInjector {
 public:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  FaultInjector() = default;  ///< disabled: no faults, no FT transport
  explicit FaultInjector(const FaultPlan& plan);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const TransportPolicy& policy() const { return policy_; }

  /// Attempt-local virtual time at which `node` crashes (kNever if it does
  /// not crash in this attempt; crashes whose absolute time predates the
  /// attempt's time offset are considered already repaired/replaced).
  [[nodiscard]] double crash_time(int node) const;

  /// If `node` is inside a hang window at local time `t`, the window's local
  /// end (where the node resumes); otherwise `t` unchanged.
  [[nodiscard]] double hang_end(int node, double t) const;

  /// Fate of one transmission attempt.
  struct XmitFate {
    bool dropped = false;
    bool corrupted = false;
    double extra_delay = 0.0;
  };
  [[nodiscard]] XmitFate xmit(int src, int dst, double t,
                              std::uint64_t msg_id, int attempt) const;

  /// Deterministically flip 1-3 bits of `payload` (non-empty) so the CRC
  /// framing has something real to catch.
  void corrupt_payload(std::vector<std::byte>& payload,
                       std::uint64_t msg_id, int attempt) const;

 private:
  /// Uniform [0,1) hash of the decision coordinates — independent of
  /// execution order, unlike a shared RNG stream.
  [[nodiscard]] double decision(std::uint64_t a, std::uint64_t b,
                                std::uint64_t c, std::uint64_t d) const;

  bool enabled_ = false;
  std::vector<FaultEvent> events_;
  TransportPolicy policy_;
  std::uint64_t seed_ = 1;
  double offset_ = 0.0;
};

}  // namespace bladed::fault
