#include "microkernel/karp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace bladed::micro {
namespace {

double rel_err(double approx, double exact) {
  return std::fabs(approx - exact) / std::fabs(exact);
}

TEST(KarpRsqrt, ExactOnPowersOfFour) {
  for (double x : {0.25, 1.0, 4.0, 16.0, 1024.0 * 1024.0}) {
    EXPECT_NEAR(karp_rsqrt(x), 1.0 / std::sqrt(x),
                4e-16 / std::sqrt(x))
        << x;
  }
}

TEST(KarpRsqrt, EstimateAccuracyBeforeRefinement) {
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(1.0, 4.0);
    EXPECT_LT(rel_err(karp_rsqrt_estimate(x), 1.0 / std::sqrt(x)), 2e-6)
        << x;
  }
}

TEST(KarpRsqrt, OneNewtonIterationSquaresTheError) {
  Rng rng(32);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(1.0, 4.0);
    EXPECT_LT(rel_err(karp_rsqrt(x, 1), 1.0 / std::sqrt(x)), 1e-11) << x;
  }
}

TEST(KarpRsqrt, TwoIterationsReachMachinePrecision) {
  Rng rng(33);
  for (int i = 0; i < 50000; ++i) {
    const double x = std::exp2(rng.uniform(-300.0, 300.0));
    EXPECT_LT(rel_err(karp_rsqrt(x, 2), 1.0 / std::sqrt(x)), 4e-16) << x;
  }
}

TEST(KarpRsqrt, ExponentParityHandledAcrossDecades) {
  // Values straddling even/odd binary exponents, including the 2^±1 cases.
  for (double x : {0.5, 2.0, 8.0, 32.0, 0.125, 3.9999, 1.0001, 2.0001}) {
    EXPECT_LT(rel_err(karp_rsqrt(x), 1.0 / std::sqrt(x)), 4e-16) << x;
  }
}

TEST(KarpRsqrt, SubnormalInputs) {
  const double tiny = 5e-324;  // smallest positive subnormal
  EXPECT_LT(rel_err(karp_rsqrt(tiny), 1.0 / std::sqrt(tiny)), 1e-15);
  const double sub = 1e-310;
  EXPECT_LT(rel_err(karp_rsqrt(sub), 1.0 / std::sqrt(sub)), 1e-15);
}

TEST(KarpRsqrt, RejectsNonPositiveAndNonFinite) {
  EXPECT_THROW(karp_rsqrt(0.0), PreconditionError);
  EXPECT_THROW(karp_rsqrt(-1.0), PreconditionError);
  EXPECT_THROW(karp_rsqrt(std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW(karp_rsqrt(std::nan("")), PreconditionError);
  EXPECT_THROW(karp_rsqrt(1.0, -1), PreconditionError);
}

TEST(KarpRsqrt, MonotoneDecreasingOnSamples) {
  double prev = karp_rsqrt(0.01);
  for (double x = 0.02; x < 100.0; x *= 1.37) {
    const double y = karp_rsqrt(x);
    EXPECT_LT(y, prev);
    prev = y;
  }
}

TEST(KarpRcbrt3, MatchesRefImplementation) {
  Rng rng(34);
  for (int i = 0; i < 10000; ++i) {
    const double r2 = rng.uniform(1e-6, 1e6);
    const double exact = 1.0 / (r2 * std::sqrt(r2));
    EXPECT_LT(rel_err(karp_rcbrt3(r2), exact), 2e-15) << r2;
  }
}

class KarpIterationSweep : public ::testing::TestWithParam<int> {};

TEST_P(KarpIterationSweep, ErrorShrinksQuadratically) {
  const int iters = GetParam();
  Rng rng(35 + iters);
  double worst = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(1.0, 4.0);
    worst = std::max(worst, rel_err(karp_rsqrt(x, iters),
                                    1.0 / std::sqrt(x)));
  }
  // error_n ~ error_estimate^(2^n): 2e-6 -> ~1e-11 -> machine eps.
  const double bounds[] = {2e-6, 1e-11, 4e-16, 4e-16};
  EXPECT_LT(worst, bounds[iters]);
}

INSTANTIATE_TEST_SUITE_P(Iterations, KarpIterationSweep,
                         ::testing::Values(0, 1, 2, 3));

/// The 4-lane kernel must reproduce the scalar one bit for bit on every
/// lane, including the lanes that force the scalar fallback (subnormals).
TEST(KarpRsqrt4, BitIdenticalToScalarOnTenMillionInputs) {
  std::vector<double> xs;
  // Every power of 2 (so every power of 4), normal and subnormal.
  for (int e = -1074; e <= 1023; ++e) xs.push_back(std::ldexp(1.0, e));
  // Each segment edge of the reduced range [1,4) and its neighbours, at
  // both exponent parities and at the extremes of the exponent range.
  for (int i = 0; i <= kKarpTableSegments; ++i) {
    const double edge = 1.0 + i * (3.0 / kKarpTableSegments);
    for (const double scale : {1.0, 0x1p-1000, 0x1p1000, 0x1p-1022, 0x1p1020}) {
      for (const double m : {std::nextafter(edge, 0.0), edge,
                             std::nextafter(edge, 8.0)}) {
        xs.push_back(m * scale);
        xs.push_back(m * scale * 0.5);
      }
    }
  }
  // Random bit patterns: positive normals over the whole exponent range,
  // then subnormals (about one lane in 16), then ordinary r² magnitudes.
  Rng rng(0x4b617270);
  constexpr std::size_t kInputs = 10'000'000;
  while (xs.size() < kInputs) {
    const std::uint64_t bits = rng.next_u64();
    switch (bits & 15) {
      case 0:  // subnormal
        xs.push_back(std::bit_cast<double>((bits >> 12) | 1));
        break;
      case 1:
      case 2:
        xs.push_back(rng.uniform(1e-8, 1e2));
        break;
      default: {
        const std::uint64_t exponent = 1 + (bits >> 4) % 2046;
        xs.push_back(std::bit_cast<double>(
            (exponent << 52) | (rng.next_u64() >> 12)));
      }
    }
  }
  xs.resize(kInputs);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); i += 4) {
    const f64x4 x = {xs[i], xs[i + 1], xs[i + 2], xs[i + 3]};
    f64x4 y;
    karp_rsqrt4(x, y);
    for (int k = 0; k < 4; ++k) {
      const double want = karp_rsqrt(x[k]);
      if (std::bit_cast<std::uint64_t>(static_cast<double>(y[k])) !=
          std::bit_cast<std::uint64_t>(want)) {
        if (++mismatches <= 10) {
          ADD_FAILURE() << "lane " << k << " x=" << std::hexfloat << x[k]
                        << " got " << y[k] << " want " << want;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(KarpRsqrt4, ALaneOutsideTheDomainThrows) {
  f64x4 y;
  EXPECT_THROW(karp_rsqrt4(f64x4{1.0, 2.0, 0.0, 4.0}, y), PreconditionError);
  EXPECT_THROW(karp_rsqrt4(f64x4{1.0, -2.0, 3.0, 4.0}, y), PreconditionError);
}

}  // namespace
}  // namespace bladed::micro
