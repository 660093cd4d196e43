#include "simnet/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/error.hpp"
#include "simnet/comm.hpp"
#include "conservation.hpp"

namespace bladed::simnet {
namespace {

Cluster::Config cfg(int ranks) {
  Cluster::Config c;
  c.ranks = ranks;
  return c;
}

TEST(Cluster, SingleRankComputeAdvancesClock) {
  Cluster cluster(cfg(1));
  cluster.run([](Comm& comm) {
    comm.compute(1.5);
    comm.compute(0.5);
    EXPECT_DOUBLE_EQ(comm.now(), 2.0);
  });
  EXPECT_DOUBLE_EQ(cluster.elapsed_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(cluster.stats(0).compute_seconds, 2.0);
}

TEST(Cluster, PingPongDeliversPayloadIntact) {
  Cluster cluster(cfg(2));
  cluster.run([](Comm& comm) {
    std::vector<int> data(100);
    std::iota(data.begin(), data.end(), 0);
    if (comm.rank() == 0) {
      comm.send(1, 7, data);
      const auto back = comm.recv<int>(1, 8);
      EXPECT_EQ(back, data);
    } else {
      const auto got = comm.recv<int>(0, 7);
      EXPECT_EQ(got, data);
      comm.send(0, 8, got);
    }
  });
  EXPECT_EQ(cluster.total_messages(), 2u);
  EXPECT_GT(cluster.elapsed_seconds(), 0.0);
}

TEST(Cluster, MessageTimeMatchesNetworkModel) {
  Cluster cluster(cfg(2));
  const NetworkModel& net = cluster.network();
  constexpr std::size_t kBytes = 100000;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<char>(kBytes));
    } else {
      (void)comm.recv<char>(0, 0);
      EXPECT_NEAR(comm.now(),
                  net.uncontended(kBytes) + net.recv_overhead, 1e-9);
    }
  });
}

TEST(Cluster, RecvBlocksUntilSenderCatchesUp) {
  // Receiver's clock must jump to the message availability time even though
  // the receiver posted the recv at t=0.
  Cluster cluster(cfg(2));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(1.0);  // sender is busy for 1 virtual second
      comm.send_value(1, 0, 42);
    } else {
      const int v = comm.recv_value<int>(0, 0);
      EXPECT_EQ(v, 42);
      EXPECT_GT(comm.now(), 1.0);
    }
  });
}

TEST(Cluster, AnySourceReceivesFromBoth) {
  Cluster cluster(cfg(3));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      int sum = 0;
      sum += comm.recv_value<int>(kAnySource, 5);
      sum += comm.recv_value<int>(kAnySource, 5);
      EXPECT_EQ(sum, 1 + 2);
    } else {
      comm.send_value(0, 5, comm.rank());
    }
  });
}

TEST(Cluster, TagsKeepStreamsApart) {
  Cluster cluster(cfg(2));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 111);
      comm.send_value(1, 2, 222);
    } else {
      // Receive in the opposite order of sending: tag matching must pick the
      // right message, not the first one.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 111);
    }
  });
}

TEST(Cluster, FifoPerSourceAndTag) {
  Cluster cluster(cfg(2));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 10; ++i)
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Cluster, DeadlockIsDetected) {
  Cluster cluster(cfg(2));
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 // Both ranks receive first: classic deadlock.
                 (void)comm.recv_value<int>(1 - comm.rank(), 0);
               }),
               SimulationError);
  expect_conserved(cluster);
}

TEST(Cluster, UserExceptionPropagates) {
  Cluster cluster(cfg(4));
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 if (comm.rank() == 2) throw std::runtime_error("boom");
                 comm.barrier();
               }),
               std::runtime_error);
  expect_conserved(cluster);
}

TEST(Cluster, UnreceivedMessagesStayCountedInTheMailbox) {
  Cluster cluster(cfg(3));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_bytes(1, 1, std::vector<std::byte>(100));
      comm.send_bytes(1, 2, std::vector<std::byte>(30));
      comm.send_bytes(2, 1, std::vector<std::byte>(7));
    } else if (comm.rank() == 1) {
      (void)comm.recv_bytes(0, 2);
    }
  });
  EXPECT_EQ(cluster.stats(1).messages_received, 1u);
  EXPECT_EQ(cluster.stats(1).bytes_received, 30u);
  EXPECT_EQ(cluster.stats(1).messages_left, 1u);
  EXPECT_EQ(cluster.stats(1).bytes_left, 100u);
  EXPECT_EQ(cluster.stats(2).messages_left, 1u);
  EXPECT_EQ(cluster.stats(2).bytes_left, 7u);
  expect_conserved(cluster);
}

TEST(Cluster, DeterministicAcrossRuns) {
  auto experiment = [] {
    Cluster cluster(cfg(8));
    cluster.run([](Comm& comm) {
      // Irregular pattern: everyone sends a variable-size block to rank 0.
      comm.compute(0.001 * comm.rank());
      if (comm.rank() == 0) {
        for (int i = 1; i < comm.size(); ++i)
          (void)comm.recv_bytes(kAnySource, 9);
      } else {
        comm.send_bytes(0, 9,
                        std::vector<std::byte>(100 * comm.rank()));
      }
    });
    expect_conserved(cluster);
    return cluster.elapsed_seconds();
  };
  const double t1 = experiment();
  const double t2 = experiment();
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(Cluster, ClusterIsReusableAndResets) {
  Cluster cluster(cfg(2));
  auto program = [](Comm& comm) {
    if (comm.rank() == 0)
      comm.send_bytes(1, 0, std::vector<std::byte>(1000));
    else
      (void)comm.recv_bytes(0, 0);
  };
  cluster.run(program);
  const double t1 = cluster.elapsed_seconds();
  const auto bytes1 = cluster.total_bytes();
  cluster.run(program);
  EXPECT_DOUBLE_EQ(cluster.elapsed_seconds(), t1);
  EXPECT_EQ(cluster.total_bytes(), bytes1);
  EXPECT_EQ(cluster.stats(1).messages_received, 1u);  // reset, not summed
  expect_conserved(cluster);
}

TEST(Cluster, BarrierSynchronizesClocks) {
  Cluster cluster(cfg(4));
  cluster.run([](Comm& comm) {
    comm.compute(comm.rank() == 3 ? 2.0 : 0.1);
    comm.barrier();
    EXPECT_GE(comm.now(), 2.0);  // everyone waits for the straggler
  });
  // All ranks end at the same time.
  const double t0 = cluster.stats(0).finish_time;
  for (int r = 1; r < 4; ++r)
    EXPECT_DOUBLE_EQ(cluster.stats(r).finish_time, t0);
}

TEST(Cluster, StatsAccountComputeAndComm) {
  Cluster cluster(cfg(2));
  cluster.run([](Comm& comm) {
    comm.compute(0.5);
    if (comm.rank() == 0)
      comm.send_bytes(1, 0, std::vector<std::byte>(1 << 16));
    else
      (void)comm.recv_bytes(0, 0);
  });
  EXPECT_DOUBLE_EQ(cluster.stats(0).compute_seconds, 0.5);
  EXPECT_GT(cluster.stats(1).comm_seconds, 0.0);
  EXPECT_EQ(cluster.stats(0).bytes_sent, std::uint64_t{1} << 16);
  EXPECT_EQ(cluster.stats(0).messages_sent, 1u);
}

TEST(Cluster, IncastContentionSlowsDelivery) {
  // 7 ranks send 64 KB each to rank 0 simultaneously; the last delivery must
  // take at least 7x the single-message ingress serialization time.
  Cluster cluster(cfg(8));
  const NetworkModel& net = cluster.network();
  constexpr std::size_t kBytes = 64 * 1024;
  double finish = 0.0;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 1; i < 8; ++i) (void)comm.recv_bytes(i, 0);
      finish = comm.now();
    } else {
      comm.send_bytes(0, 0, std::vector<std::byte>(kBytes));
    }
  });
  EXPECT_GT(finish, 7.0 * net.wire_time(kBytes));
}

TEST(Cluster, RecvSizeMismatchErrorNamesEndpointsAndSizes) {
  // The typed-receive validation must say which link and tag carried the
  // bad payload and what the size mismatch was, not just that one happened.
  Cluster cluster(cfg(2));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_bytes(1, 3, std::vector<std::byte>(10));  // not 4-divisible
    } else {
      try {
        (void)comm.recv<int>(0, 3);
        FAIL() << "expected PreconditionError";
      } catch (const PreconditionError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("src=0"), std::string::npos);
        EXPECT_NE(msg.find("dst=1"), std::string::npos);
        EXPECT_NE(msg.find("tag=3"), std::string::npos);
        EXPECT_NE(msg.find("10 bytes"), std::string::npos);
        EXPECT_NE(msg.find("element size 4"), std::string::npos);
      }
    }
  });
}

TEST(Cluster, RecvValueSizeMismatchReportsBothSizes) {
  Cluster cluster(cfg(2));
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 0, std::int16_t{5});
    } else {
      try {
        (void)comm.recv_value<std::int64_t>(0, 0);
        FAIL() << "expected PreconditionError";
      } catch (const PreconditionError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("got 2 bytes, expected 8"), std::string::npos);
        EXPECT_NE(msg.find("src=0"), std::string::npos);
      }
    }
  });
}

TEST(Cluster, SendToOutOfRangeRankNamesTheBounds) {
  Cluster cluster(cfg(2));
  try {
    cluster.run([](Comm& comm) { comm.send_value(5, 0, 1); });
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("destination rank 5 out of range"),
              std::string::npos);
  }
}

TEST(Cluster, RejectsZeroRanks) {
  EXPECT_THROW(Cluster(cfg(0)), PreconditionError);
}

TEST(Cluster, SelfSendLoopback) {
  Cluster cluster(cfg(1));
  cluster.run([](Comm& comm) {
    comm.send_value(0, 1, 3.25);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 1), 3.25);
  });
  EXPECT_EQ(cluster.total_messages(), 0u);  // loopback avoids the network
  EXPECT_EQ(cluster.stats(0).messages_received, 1u);
  expect_conserved(cluster);
}

}  // namespace
}  // namespace bladed::simnet
