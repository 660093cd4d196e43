#pragma once

/// simnet's conservation invariant, asserted after runs in the simnet and
/// fault suites: every message a run sent was received, is still waiting
/// in a mailbox, or was abandoned by the fault transport. It holds for
/// message counts and for payload bytes, and for runs that throw as well.

#include <gtest/gtest.h>

#include <cstdint>

#include "simnet/cluster.hpp"

namespace bladed::simnet {

inline void expect_conserved(const Cluster& cluster) {
  std::uint64_t sent = 0, sent_bytes = 0;
  std::uint64_t received = 0, received_bytes = 0;
  std::uint64_t left = 0, left_bytes = 0;
  for (int r = 0; r < cluster.ranks(); ++r) {
    const RankStats& s = cluster.stats(r);
    sent += s.messages_sent;
    sent_bytes += s.bytes_sent;
    received += s.messages_received;
    received_bytes += s.bytes_received;
    left += s.messages_left;
    left_bytes += s.bytes_left;
  }
  EXPECT_EQ(sent, received + left + cluster.fault_stats().messages_lost);
  EXPECT_EQ(sent_bytes,
            received_bytes + left_bytes + cluster.fault_stats().bytes_lost);
}

}  // namespace bladed::simnet
