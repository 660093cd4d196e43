/// bladed::hostperf unit tests: worker-pool primitives, bench-JSON
/// emission, and the parallel engine's determinism contract — simulation
/// results and virtual timings must be bit-identical at every
/// host_threads value.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "common/json.hpp"
#include "hostperf/benchjson.hpp"
#include "hostperf/hostperf.hpp"
#include "npb/parallel.hpp"
#include "simnet/cluster.hpp"
#include "simnet/comm.hpp"
#include "treecode/parallel.hpp"

namespace {

using namespace bladed;

TEST(ResolveHostThreads, PositiveRequestPassesThrough) {
  EXPECT_EQ(hostperf::resolve_host_threads(1), 1);
  EXPECT_EQ(hostperf::resolve_host_threads(7), 7);
}

TEST(ResolveHostThreads, AutoResolvesToAtLeastOne) {
  EXPECT_GE(hostperf::resolve_host_threads(0), 1);
  EXPECT_GE(hostperf::resolve_host_threads(-3), 1);
}

TEST(ResolveHostThreads, EnvironmentOverridesAuto) {
  ::setenv("BLADED_HOST_THREADS", "5", 1);
  EXPECT_EQ(hostperf::resolve_host_threads(0), 5);
  // Explicit requests win over the environment.
  EXPECT_EQ(hostperf::resolve_host_threads(2), 2);
  ::unsetenv("BLADED_HOST_THREADS");
}

TEST(ComputeSlots, BoundsConcurrency) {
  constexpr int kSlots = 3;
  constexpr int kThreads = 10;
  hostperf::ComputeSlots slots(kSlots);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        slots.acquire();
        const int now = inside.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        inside.fetch_sub(1);
        slots.release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(peak.load(), kSlots);
  EXPECT_GE(peak.load(), 1);
}

TEST(BenchReport, InactiveWithoutPath) {
  hostperf::BenchReport report("", "unit", 1);
  EXPECT_FALSE(report.active());
  report.add({"x", 1.0, 2.0, 3.0, 4.0});
  report.write();  // must be a no-op, not a crash
}

TEST(BenchReport, WritesSchemaDocumentPerReport) {
  const std::string path =
      testing::TempDir() + "/bladed_benchjson_test.jsonl";
  std::remove(path.c_str());
  {
    hostperf::BenchReport report(path, "unit_bench", 4);
    ASSERT_TRUE(report.active());
    report.add({"alpha", 0.25, 12.5, 1e9, 42.0});
    report.add({"beta \"quoted\"", 0.5, 1.0, 2.0, 3.0});
  }  // destructor writes
  {
    hostperf::BenchReport report(path, "second_binary", 1);
    report.add({"gamma", 1.0, 2.0, 3.0, 4.0});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2U);  // one JSONL document per report
  EXPECT_NE(lines[0].find("\"schema\":\"bladed-bench-v1\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"bench\":\"unit_bench\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"host_threads\":4"), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"virtual_seconds\":12.5"), std::string::npos);
  EXPECT_NE(lines[0].find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"bench\":\"second_binary\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchReport, HostileRowNameRoundTrips) {
  // Quote, backslash, newline, tab and a raw control byte: the document
  // must still parse and give the name back unchanged.
  const std::string hostile =
      std::string("q\"b\\s\nn\tt") + '\x01' + "end";
  const std::string path =
      testing::TempDir() + "/bladed_benchjson_hostile.jsonl";
  std::remove(path.c_str());
  {
    hostperf::BenchReport report(path, "unit_bench", 1);
    report.add({hostile, 0.1, 1.0, 2.0, 3.0});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const Json row = Json::parse(line).get("results").as_array().at(0);
  EXPECT_EQ(row.get("name").as_string(), hostile);
  EXPECT_EQ(row.get("wall_seconds").as_number(), 0.1);
  std::remove(path.c_str());
}

// --- engine determinism across host thread counts --------------------------

TEST(ParallelEngine, StencilChecksumAndTimingInvariantUnderHostThreads) {
  // The stencil kernel's solution checksum is a bitwise digest and
  // elapsed_seconds is virtual time: both must be exactly equal no matter
  // how many host workers execute the compute regions.
  npb::ParallelNpbConfig cfg;
  cfg.ranks = 6;
  cfg.cpu = &arch::tm5600_633();
  cfg.host_threads = 1;
  const npb::ParallelStencilResult serial =
      npb::run_parallel_stencil(cfg, 24, 6);
  for (int host_threads : {2, 8}) {
    cfg.host_threads = host_threads;
    const npb::ParallelStencilResult par =
        npb::run_parallel_stencil(cfg, 24, 6);
    EXPECT_EQ(serial.solution_checksum, par.solution_checksum)
        << "host_threads=" << host_threads;
    EXPECT_EQ(serial.elapsed_seconds, par.elapsed_seconds)
        << "host_threads=" << host_threads;
    EXPECT_EQ(serial.final_residual, par.final_residual)
        << "host_threads=" << host_threads;
    EXPECT_EQ(serial.bytes, par.bytes);
    EXPECT_EQ(serial.messages, par.messages);
  }
}

TEST(ParallelEngine, TreecodeStateBitIdenticalUnderHostThreads) {
  auto run = [](int host_threads) {
    treecode::ParallelConfig cfg;
    cfg.ranks = 4;
    cfg.particles = 500;
    cfg.steps = 2;
    cfg.cpu = &arch::tm5600_633();
    cfg.host_threads = host_threads;
    return treecode::run_parallel_nbody(cfg);
  };
  const treecode::ParallelResult serial = run(1);
  const treecode::ParallelResult par = run(8);
  EXPECT_EQ(serial.elapsed_seconds, par.elapsed_seconds);
  EXPECT_EQ(serial.total_flops, par.total_flops);
  EXPECT_EQ(serial.particles_out.x, par.particles_out.x);
  EXPECT_EQ(serial.particles_out.vx, par.particles_out.vx);
  EXPECT_EQ(serial.particles_out.pot, par.particles_out.pot);
}

TEST(ParallelEngine, AutoHostThreadsResolvesAndRuns) {
  npb::ParallelNpbConfig cfg;
  cfg.ranks = 4;
  cfg.cpu = &arch::tm5600_633();
  cfg.host_threads = 0;  // auto
  const npb::ParallelEpResult r = npb::run_parallel_ep(cfg, 12);
  EXPECT_GT(r.elapsed_seconds, 0.0);
}

TEST(ParallelEngine, ClusterReportsResolvedHostThreads) {
  simnet::Cluster c({.ranks = 2, .host_threads = 3});
  EXPECT_EQ(c.host_threads(), 3);
  simnet::Cluster serial({.ranks = 2});
  EXPECT_EQ(serial.host_threads(), 1);
}

TEST(ParallelEngine, ExceptionOnOneRankAbortsUnderManyWorkers) {
  simnet::Cluster c({.ranks = 6, .host_threads = 6});
  struct Boom : std::runtime_error {
    Boom() : std::runtime_error("boom") {}
  };
  EXPECT_THROW(c.run([](simnet::Comm& comm) {
    comm.compute(1e-3);
    if (comm.rank() == 3) throw Boom();
    comm.barrier();
  }),
               Boom);
}

}  // namespace
