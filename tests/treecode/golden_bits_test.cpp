// Golden bits of the treecode force paths. Every hash below was recorded
// from the fused per-interaction loop that preceded the walk/evaluate split;
// the split must reproduce each one exactly (same MAC decisions, same list
// order, same per-term arithmetic, same serial summation).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/registry.hpp"
#include "treecode/ic.hpp"
#include "treecode/parallel.hpp"
#include "treecode/traverse.hpp"

namespace bladed::treecode {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over 64-bit words.
void fnv(std::uint64_t& h, std::uint64_t word) { h = (h ^ word) * kFnvPrime; }

void fnv(std::uint64_t& h, const std::vector<double>& v) {
  for (const double d : v) fnv(h, std::bit_cast<std::uint64_t>(d));
}

constexpr std::size_t kParticles = 4000;
constexpr std::uint64_t kSeed = 7;

ParticleSet make_ic(int ic) {
  switch (ic) {
    case 0:
      return plummer_sphere(kParticles, kSeed);
    case 1:
      return uniform_cube(kParticles, kSeed);
    default:
      return colliding_pair(kParticles, kSeed);
  }
}

GravityParams gravity(bool quad, bool karp) {
  GravityParams g;
  g.quadrupole = quad;
  g.rsqrt = karp ? RsqrtImpl::kKarp : RsqrtImpl::kLibm;
  return g;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%#018llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Golden {
  std::uint64_t hash;
  std::uint64_t interactions;
};

// ---------------------------------------------------------------------------
// run_parallel_nbody: Plummer / uniform / colliding ICs, 1 and 8 ranks,
// quadrupole off/on, Karp/libm; 4000 particles, seed 7, one step. The hash
// covers particles_out's x, y, z, v, a and pot arrays in that order.

struct NbodyCase {
  int ic;
  int ranks;
  bool quad;
  bool karp;
  Golden golden;
};

constexpr NbodyCase kNbody[] = {
    // clang-format off
    {0, 1, false, true , {0x2c45852852c95becULL, 4358345}},
    {0, 1, false, false, {0xedf0763441a163c6ULL, 4358345}},
    {0, 1, true , true , {0xaeba70a327ee0ea0ULL, 4358345}},
    {0, 1, true , false, {0x66128d6258886340ULL, 4358345}},
    {0, 8, false, true , {0x9797fcd6a0641180ULL, 4301900}},
    {0, 8, false, false, {0x1a6d4866d129c39cULL, 4301900}},
    {0, 8, true , true , {0x86fce39e0062a695ULL, 4301900}},
    {0, 8, true , false, {0x20d1a582d0b64325ULL, 4301900}},
    {1, 1, false, true , {0x2aaf88c87daecaf0ULL, 1348240}},
    {1, 1, false, false, {0x989dfeebcb656072ULL, 1348240}},
    {1, 1, true , true , {0xc09ad28c0abce411ULL, 1348240}},
    {1, 1, true , false, {0xb32b802a14e03b59ULL, 1348240}},
    {1, 8, false, true , {0x4f18e0eaf760377fULL, 1350256}},
    {1, 8, false, false, {0x2d001cccb8149324ULL, 1350256}},
    {1, 8, true , true , {0x01a33925b1cc5977ULL, 1350256}},
    {1, 8, true , false, {0xb4a74138a52fc207ULL, 1350256}},
    {2, 1, false, true , {0xd835c1696e380f68ULL, 3792890}},
    {2, 1, false, false, {0x2165b5adac6cbcdbULL, 3792890}},
    {2, 1, true , true , {0xa3a5e8f8c8a1922aULL, 3792890}},
    {2, 1, true , false, {0xf6df4b01fad77e2dULL, 3792890}},
    {2, 8, false, true , {0xf9c3e5e3648daddfULL, 3734478}},
    {2, 8, false, false, {0x26a710eb681d5fecULL, 3734478}},
    {2, 8, true , true , {0x28bf68c1949a3d00ULL, 3734478}},
    {2, 8, true , false, {0xc096b6ac72ee8a9aULL, 3734478}},
    // clang-format on
};

class NbodyGoldenBits : public ::testing::TestWithParam<NbodyCase> {};

TEST_P(NbodyGoldenBits, ParticlesOutMatchTheRecordedHash) {
  const NbodyCase c = GetParam();
  ParallelConfig cfg;
  cfg.ranks = c.ranks;
  cfg.particles = kParticles;
  cfg.steps = 1;
  cfg.seed = kSeed;
  cfg.ic_kind = c.ic;
  cfg.cpu = &arch::tm5600_633();
  cfg.gravity = gravity(c.quad, c.karp);
  const ParallelResult res = run_parallel_nbody(cfg);
  const ParticleSet& p = res.particles_out;
  std::uint64_t h = kFnvOffset;
  for (const auto* v : {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.ax, &p.ay,
                        &p.az, &p.pot}) {
    fnv(h, *v);
  }
  EXPECT_EQ(hex(h), hex(c.golden.hash));
  EXPECT_EQ(res.interactions, c.golden.interactions);
}

INSTANTIATE_TEST_SUITE_P(Configs, NbodyGoldenBits,
                         ::testing::ValuesIn(kNbody));

// ---------------------------------------------------------------------------
// compute_forces and compute_forces_grouped over the whole set: every IC,
// quadrupole off/on, Karp/libm. The hash covers ax, ay, az and pot, then the
// traversal counters pp, pn, pn_quad, mac_tests and visited.

struct ForcesCase {
  int ic;
  bool quad;
  bool karp;
  Golden serial;
  Golden grouped;
};

constexpr ForcesCase kForces[] = {
    // clang-format off
    {0, false, true ,
     {0xe87c8c2fc9f9c74bULL, 2179089},
     {0x24f1b8afe635d12cULL, 2972823}},
    {0, false, false,
     {0xb298b10c93a39381ULL, 2179089},
     {0x01d1c509aa44fc34ULL, 2972823}},
    {0, true , true ,
     {0xed39d2e96f2cc786ULL, 2179089},
     {0x4f29b2774bc7d75cULL, 2972823}},
    {0, true , false,
     {0xdc5763bd8217cbc1ULL, 2179089},
     {0x3c52e9c2c45b502dULL, 2972823}},
    {1, false, true ,
     {0x06f5dec1612714fcULL, 674120},
     {0x59003b289505613bULL, 1205392}},
    {1, false, false,
     {0x711e66a351b8346fULL, 674120},
     {0x724c1994cbf9ccccULL, 1205392}},
    {1, true , true ,
     {0x0a03f1baadc2cea6ULL, 674120},
     {0x88768d9e0f1ca751ULL, 1205392}},
    {1, true , false,
     {0xf19a0f06345e1b07ULL, 674120},
     {0x3e1f86d399188322ULL, 1205392}},
    {2, false, true ,
     {0xeb8673c3445e41cfULL, 1896411},
     {0x5369b3634ea6736eULL, 2626460}},
    {2, false, false,
     {0x1aa84f85211a21a8ULL, 1896411},
     {0x1b819791ca6f4697ULL, 2626460}},
    {2, true , true ,
     {0x4708f3e35f2e3763ULL, 1896411},
     {0xf87e0db4e72133f8ULL, 2626460}},
    {2, true , false,
     {0x04a0c38683079f76ULL, 1896411},
     {0x826e9d1b5af5d4cfULL, 2626460}},
    // clang-format on
};

Golden hash_forces(const ParticleSet& p, const TraversalStats& st) {
  std::uint64_t h = kFnvOffset;
  for (const auto* v : {&p.ax, &p.ay, &p.az, &p.pot}) fnv(h, *v);
  for (const std::uint64_t n :
       {st.pp, st.pn, st.pn_quad, st.mac_tests, st.visited}) {
    fnv(h, n);
  }
  return {h, st.interactions()};
}

class ForcesGoldenBits : public ::testing::TestWithParam<ForcesCase> {};

TEST_P(ForcesGoldenBits, SerialWalkMatchesTheRecordedHash) {
  const ForcesCase c = GetParam();
  ParticleSet p = make_ic(c.ic);
  const Octree tree = Octree::build(p);
  p.zero_accelerations();
  const Golden got =
      hash_forces(p, compute_forces(p, tree, gravity(c.quad, c.karp)));
  EXPECT_EQ(hex(got.hash), hex(c.serial.hash));
  EXPECT_EQ(got.interactions, c.serial.interactions);
}

TEST_P(ForcesGoldenBits, GroupedWalkMatchesTheRecordedHash) {
  const ForcesCase c = GetParam();
  ParticleSet p = make_ic(c.ic);
  const Octree tree = Octree::build(p);
  p.zero_accelerations();
  const Golden got = hash_forces(
      p, compute_forces_grouped(p, tree, gravity(c.quad, c.karp)));
  EXPECT_EQ(hex(got.hash), hex(c.grouped.hash));
  EXPECT_EQ(got.interactions, c.grouped.interactions);
}

INSTANTIATE_TEST_SUITE_P(Configs, ForcesGoldenBits,
                         ::testing::ValuesIn(kForces));

}  // namespace
}  // namespace bladed::treecode
