#include "npb/parallel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "arch/registry.hpp"
#include "common/error.hpp"
#include "npb/parallel_internal.hpp"

namespace bladed::npb {
namespace {

ParallelNpbConfig cfg(int ranks) {
  ParallelNpbConfig c;
  c.ranks = ranks;
  c.cpu = &arch::tm5600_633();
  return c;
}

TEST(ParallelEp, CountsExactlyMatchSerial) {
  const EpResult serial = run_ep(16);
  for (int ranks : {1, 3, 8}) {
    const ParallelEpResult par = run_parallel_ep(cfg(ranks), 16);
    EXPECT_EQ(par.global.q, serial.q) << ranks;          // counts: exact
    EXPECT_EQ(par.global.accepted, serial.accepted) << ranks;
    EXPECT_EQ(par.global.pairs, serial.pairs) << ranks;
    // Sums: equal up to reduction order.
    EXPECT_NEAR(par.global.sx, serial.sx,
                1e-9 * std::max(1.0, std::fabs(serial.sx)))
        << ranks;
  }
}

TEST(ParallelEp, NearPerfectSpeedup) {
  // Needs a class-realistic pair count: at toy sizes the allreduce latency
  // is visible against microseconds of compute.
  const double t1 = run_parallel_ep(cfg(1), 22).elapsed_seconds;
  const double t8 = run_parallel_ep(cfg(8), 22).elapsed_seconds;
  const double speedup = t1 / t8;
  EXPECT_GT(speedup, 7.0);  // embarrassingly parallel
  EXPECT_LT(speedup, 8.01);
}

TEST(ParallelEp, BlockDecompositionIsSeamAgnostic) {
  // Splitting into 5 (non-power-of-two) blocks changes nothing.
  const ParallelEpResult a = run_parallel_ep(cfg(5), 14);
  const ParallelEpResult b = run_parallel_ep(cfg(7), 14);
  EXPECT_EQ(a.global.q, b.global.q);
}

TEST(ParallelEp, CommunicationIsTiny) {
  const ParallelEpResult r = run_parallel_ep(cfg(8), 22);
  // A handful of scalar/array allreduces; orders of magnitude below the
  // compute time at class-realistic sizes.
  EXPECT_LT(static_cast<double>(r.bytes), 1e5);
  EXPECT_GT(r.compute_seconds / r.elapsed_seconds, 0.9);
}

TEST(ParallelEp, RejectsBadConfig) {
  ParallelNpbConfig c = cfg(4);
  c.cpu = nullptr;
  EXPECT_THROW(run_parallel_ep(c, 16), PreconditionError);
  EXPECT_THROW(run_parallel_ep(cfg(4), 2), PreconditionError);
}

TEST(ParallelIs, GloballySortedPermutation) {
  for (int ranks : {1, 2, 6}) {
    const ParallelIsResult r = run_parallel_is(cfg(ranks), 14, 10, 5);
    EXPECT_TRUE(r.ranks_are_permutation) << ranks;
    EXPECT_TRUE(r.globally_sorted) << ranks;
    EXPECT_EQ(r.keys, 1u << 14);
  }
}

TEST(ParallelIs, CommunicationGrowsWithRanks) {
  const ParallelIsResult r2 = run_parallel_is(cfg(2), 14, 10, 5);
  const ParallelIsResult r8 = run_parallel_is(cfg(8), 14, 10, 5);
  EXPECT_GT(r8.bytes, r2.bytes);
  EXPECT_GT(r8.messages, r2.messages);
}

TEST(ParallelIs, ScalesWorseThanEp) {
  // The histogram allgather is the classic IS bottleneck on Fast Ethernet.
  auto speedup_is = [&](int ranks) {
    const double t1 = run_parallel_is(cfg(1), 16, 11, 3).elapsed_seconds;
    return t1 / run_parallel_is(cfg(ranks), 16, 11, 3).elapsed_seconds;
  };
  auto speedup_ep = [&](int ranks) {
    const double t1 = run_parallel_ep(cfg(1), 17).elapsed_seconds;
    return t1 / run_parallel_ep(cfg(ranks), 17).elapsed_seconds;
  };
  EXPECT_LT(speedup_is(8), speedup_ep(8));
}

TEST(ParallelIs, DeterministicAcrossRuns) {
  const ParallelIsResult a = run_parallel_is(cfg(4), 12, 8, 3);
  const ParallelIsResult b = run_parallel_is(cfg(4), 12, 8, 3);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.bytes, b.bytes);
}

// Exact figures of IS and the checkpointed IS-FT (a crash of the last rank
// half way through forces one restart), recorded before the histogram
// allgather returned shared views and the bucket prefix became one pass per
// histogram. Every field is deterministic, so any change to the message
// pattern, the charged ops or the ranking shows up here bit for bit.
struct IsGolden {
  int ranks;
  double elapsed;
  std::uint64_t messages, bytes;
  double ft_elapsed;
  std::uint64_t ft_messages, ft_bytes;
  double ft_total;
};

constexpr std::uint64_t kIsGoldenRankChecksum = 0x23561dbed3941e0fULL;
constexpr IsGolden kIsGolden[] = {
    {1, 0x1.cc80cb833562ep-5, 0, 0, 0x1.cc80cb833562ep-5, 0, 0,
     0x1.cc80cb833562ep-5},
    {4, 0x1.cbbd2bcfb9d3fp-4, 120, 1973040, 0x1.1eba6aee00b1fp-4, 72,
     1184688, 0x1.41d33ce8e0deap-1},
    {7, 0x1.9f1b3013ac6bdp-3, 420, 6905640, 0x1.01e7f78253149p-3, 252,
     4146408, 0x1.761db6e896122p-1},
};

TEST(ParallelIs, GoldenFieldsAreBitExact) {
  for (const IsGolden& g : kIsGolden) {
    const ParallelIsResult is = run_parallel_is(cfg(g.ranks), 16, 12, 10);
    EXPECT_EQ(is.elapsed_seconds, g.elapsed) << g.ranks;
    EXPECT_EQ(is.messages, g.messages) << g.ranks;
    EXPECT_EQ(is.bytes, g.bytes) << g.ranks;
    EXPECT_EQ(is.rank_checksum, kIsGoldenRankChecksum) << g.ranks;
    EXPECT_TRUE(is.globally_sorted) << g.ranks;

    NpbFaultConfig f;
    f.base = cfg(g.ranks);
    if (g.ranks > 1) f.schedule.crash(g.ranks - 1, 0.5 * is.elapsed_seconds);
    const ParallelIsFtResult ft = run_parallel_is_ft(f, 16, 12, 10);
    EXPECT_EQ(ft.ft.restarts, g.ranks > 1 ? 1 : 0) << g.ranks;
    EXPECT_EQ(ft.is.elapsed_seconds, g.ft_elapsed) << g.ranks;
    EXPECT_EQ(ft.is.messages, g.ft_messages) << g.ranks;
    EXPECT_EQ(ft.is.bytes, g.ft_bytes) << g.ranks;
    EXPECT_EQ(ft.ft.total_virtual_seconds, g.ft_total) << g.ranks;
    EXPECT_EQ(ft.is.rank_checksum, kIsGoldenRankChecksum) << g.ranks;
    EXPECT_TRUE(ft.is.globally_sorted) << g.ranks;
  }
}

TEST(ParallelStencil, BitwiseIdenticalAcrossDecompositions) {
  // Jacobi reads only the previous iterate, so the slab decomposition must
  // not change a single bit: residuals and the z-ordered checksum are
  // exactly equal for any rank count.
  const ParallelStencilResult serial = run_parallel_stencil(cfg(1), 16, 6);
  for (int ranks : {2, 4, 8}) {
    const ParallelStencilResult par = run_parallel_stencil(cfg(ranks), 16, 6);
    EXPECT_EQ(par.solution_checksum, serial.solution_checksum) << ranks;
    EXPECT_EQ(par.final_residual, serial.final_residual) << ranks;
  }
}

TEST(ParallelStencil, JacobiReducesTheResidual) {
  const ParallelStencilResult r = run_parallel_stencil(cfg(4), 16, 30);
  EXPECT_GT(r.initial_residual, 0.0);
  EXPECT_LT(r.final_residual, 0.7 * r.initial_residual);
}

TEST(ParallelStencil, HaloTrafficScalesWithRanksNotGridVolume) {
  // Each rank exchanges two n^2 ghost planes per sweep: total bytes grow
  // linearly in rank count and are independent of slab thickness.
  const ParallelStencilResult r2 = run_parallel_stencil(cfg(2), 16, 4);
  const ParallelStencilResult r8 = run_parallel_stencil(cfg(8), 16, 4);
  EXPECT_NEAR(static_cast<double>(r8.bytes) / static_cast<double>(r2.bytes),
              4.0, 0.5);
}

TEST(ParallelStencil, NearestNeighborBeatsAllgatherScaling) {
  // The halo pattern's cost per rank is constant, so stencil efficiency at
  // 8 ranks must far exceed IS's collapsing allgather at similar sizes.
  // Needs a plane size where compute is visible against the per-sweep
  // halo (two 32 KB planes on Fast Ethernet).
  auto speedup = [&](int ranks) {
    const double t1 = run_parallel_stencil(cfg(1), 64, 12).elapsed_seconds;
    return t1 / run_parallel_stencil(cfg(ranks), 64, 12).elapsed_seconds;
  };
  EXPECT_GT(speedup(8), 2.0);
}

TEST(ParallelStencil, RejectsBadConfig) {
  EXPECT_THROW(run_parallel_stencil(cfg(4), 2, 1), PreconditionError);
  EXPECT_THROW(run_parallel_stencil(cfg(8), 16, 0), PreconditionError);
  EXPECT_THROW(run_parallel_stencil(cfg(32), 16, 1), PreconditionError);
}

// A ranking that misses keys (a rank that died before ranking its block)
// verifies neither as a permutation nor as sorted.
TEST(ParallelIs, VerificationRequiresEveryKeyRanked) {
  const std::vector<std::vector<std::uint32_t>> keys = {{7, 3}, {5, 1}};
  ParallelIsResult res;
  res.keys = 4;
  detail::verify_ranking(keys, {{3, 1}, {2, 0}}, res);
  EXPECT_TRUE(res.ranks_are_permutation);
  EXPECT_TRUE(res.globally_sorted);

  constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
  detail::verify_ranking({{}, {}}, {{}, {}}, res);  // nothing ranked
  EXPECT_FALSE(res.ranks_are_permutation);
  EXPECT_FALSE(res.globally_sorted);
  EXPECT_EQ(res.rank_checksum, kFnvOffset);

  detail::verify_ranking({{7, 3}, {}}, {{3, 1}, {}}, res);  // rank 1 dead
  EXPECT_FALSE(res.ranks_are_permutation);
  EXPECT_FALSE(res.globally_sorted);

  detail::verify_ranking(keys, {{3, 1}, {}}, res);  // rank 1 never ranked
  EXPECT_FALSE(res.ranks_are_permutation);
  EXPECT_FALSE(res.globally_sorted);
}

TEST(ParallelIs, RejectsBadConfig) {
  EXPECT_THROW(run_parallel_is(cfg(4), 2, 8), PreconditionError);
  EXPECT_THROW(run_parallel_is(cfg(4), 12, 1), PreconditionError);
  EXPECT_THROW(run_parallel_is(cfg(4), 12, 8, 0), PreconditionError);
}

}  // namespace
}  // namespace bladed::npb
