#include "fault/injector.hpp"

#include <algorithm>
#include <cstddef>

namespace bladed::fault {

FaultStats& FaultStats::operator+=(const FaultStats& o) {
  drops += o.drops;
  retransmits += o.retransmits;
  corruptions += o.corruptions;
  crc_rejects += o.crc_rejects;
  messages_lost += o.messages_lost;
  bytes_lost += o.bytes_lost;
  crashes += o.crashes;
  hangs += o.hangs;
  delays += o.delays;
  delay_seconds += o.delay_seconds;
  hang_seconds += o.hang_seconds;
  return *this;
}

const char* to_string(ExecutedFault::Action a) {
  switch (a) {
    case ExecutedFault::Action::kDrop:
      return "drop";
    case ExecutedFault::Action::kRetransmit:
      return "retransmit";
    case ExecutedFault::Action::kCorrupt:
      return "corrupt";
    case ExecutedFault::Action::kDelay:
      return "delay";
    case ExecutedFault::Action::kLost:
      return "lost";
    case ExecutedFault::Action::kCrash:
      return "crash";
    case ExecutedFault::Action::kHang:
      return "hang";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : enabled_(plan.enabled),
      events_(plan.schedule.events()),
      policy_(plan.transport),
      seed_(plan.seed),
      offset_(plan.time_offset) {}

double FaultInjector::crash_time(int node) const {
  if (!enabled_) return kNever;
  for (const FaultEvent& e : events_) {
    if (e.kind != FaultKind::kNodeCrash || e.node != node) continue;
    const double local = e.time - offset_;
    if (local >= 0.0) return local;  // earliest (events are time-sorted)
  }
  return kNever;
}

double FaultInjector::hang_end(int node, double t) const {
  if (!enabled_) return t;
  double out = t;
  // Chained windows: stalling through one window can land inside the next.
  for (bool moved = true; moved;) {
    moved = false;
    for (const FaultEvent& e : events_) {
      if (e.kind != FaultKind::kNodeHang || e.node != node) continue;
      const double lo = e.time - offset_;
      const double hi = e.end() - offset_;
      if (out >= lo && out < hi) {
        out = hi;
        moved = true;
      }
    }
  }
  return out;
}

double FaultInjector::decision(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c, std::uint64_t d) const {
  // splitmix64 finalizer over the mixed coordinates.
  std::uint64_t x = seed_;
  for (std::uint64_t v : {a, b, c, d}) {
    x += 0x9e3779b97f4a7c15ULL + v;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x = x ^ (x >> 31);
  }
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

FaultInjector::XmitFate FaultInjector::xmit(int src, int dst, double t,
                                            std::uint64_t msg_id,
                                            int attempt) const {
  XmitFate fate;
  if (!enabled_) return fate;
  const double abs_t = t + offset_;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (!e.active_at(abs_t) || !e.applies_to_link(src, dst)) continue;
    switch (e.kind) {
      case FaultKind::kLinkDrop:
        if (decision(i, msg_id, static_cast<std::uint64_t>(attempt), 1) <
            e.probability) {
          fate.dropped = true;
        }
        break;
      case FaultKind::kPayloadCorrupt:
        if (decision(i, msg_id, static_cast<std::uint64_t>(attempt), 2) <
            e.probability) {
          fate.corrupted = true;
        }
        break;
      case FaultKind::kTransientDelay:
        if (decision(i, msg_id, static_cast<std::uint64_t>(attempt), 3) <
            e.probability) {
          fate.extra_delay += e.extra_delay;
        }
        break;
      default:
        break;
    }
    if (fate.dropped) break;  // a dropped frame cannot also be corrupted
  }
  return fate;
}

void FaultInjector::corrupt_payload(std::vector<std::byte>& payload,
                                    std::uint64_t msg_id, int attempt) const {
  if (payload.empty()) return;
  const auto nbits =
      1 + static_cast<int>(decision(msg_id, attempt, 4, 0) * 3.0);
  for (int k = 0; k < nbits; ++k) {
    const double u = decision(msg_id, attempt, 5, static_cast<std::uint64_t>(k));
    const std::size_t byte =
        static_cast<std::size_t>(u * static_cast<double>(payload.size()));
    const int bit = static_cast<int>(decision(msg_id, attempt, 6, k) * 8.0);
    payload[std::min(byte, payload.size() - 1)] ^=
        static_cast<std::byte>(1u << std::min(bit, 7));
  }
}

}  // namespace bladed::fault
