#pragma once

/// Karp's reciprocal square root (A. Karp, "Speeding Up N-body Calculations
/// on Machines Lacking a Hardware Square Root", Scientific Programming 1(2)):
/// range-reduce the argument to [1,4), look up a per-segment Chebyshev-node
/// quadratic fit of 1/sqrt(m), then sharpen with Newton–Raphson iterations —
/// all adds and multiplies, no divide and no square root instruction. This is
/// the second implementation benchmarked in the paper's §3.2.
///
/// The scalar karp_rsqrt and the 4-lane karp_rsqrt4 are inline and run the
/// same operations in the same order, so they agree bit for bit. Arguments
/// that are subnormal, non-positive or not finite leave the inline path for
/// an out-of-line one (renormalisation, or the precondition error).

#include <array>
#include <bit>
#include <cstdint>

namespace bladed::micro {

/// Number of table segments over the reduced range [1,4).
inline constexpr int kKarpTableSegments = 128;

/// Four doubles in one GCC/Clang vector, the SIMD lanes of the treecode's
/// interaction evaluation, and the same lanes as bit patterns.
using f64x4 = double __attribute__((vector_size(32)));
using u64x4 = std::uint64_t __attribute__((vector_size(32)));

namespace detail {

struct KarpSegment {
  double c0, c1, c2;  ///< quadratic in t = m - mid, f(m) ~ c0 + t*(c1 + t*c2)
  double mid;
};

/// The segment table, built once at static initialisation (karp.cpp): a
/// static initialiser in another translation unit must not call Karp.
extern const std::array<KarpSegment, kKarpTableSegments> kKarpTable;

inline constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;

/// Table + quadratic estimate of 1/sqrt(m) for m in [1,4).
inline double karp_poly(double m) {
  const double width = 3.0 / kKarpTableSegments;
  int idx = static_cast<int>((m - 1.0) / width);
  if (idx >= kKarpTableSegments) idx = kKarpTableSegments - 1;
  const KarpSegment& s = kKarpTable[static_cast<std::size_t>(idx)];
  const double t = m - s.mid;
  return s.c0 + t * (s.c1 + t * s.c2);
}

/// Subnormal, non-positive or non-finite x, or negative nr_iterations:
/// renormalises subnormals by 2^54 and throws PreconditionError otherwise.
[[gnu::cold, gnu::noinline]] double karp_rsqrt_slow(double x,
                                                    int nr_iterations);

}  // namespace detail

/// 1/sqrt(x) for finite x > 0, with `nr_iterations` Newton–Raphson
/// refinements after the table+polynomial estimate.
/// 0 iterations: ~1e-6 relative error; 1: ~1e-12; 2: ~1e-16 (full double).
[[nodiscard]] inline double karp_rsqrt(double x, int nr_iterations = 2) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  // Sign and exponent field: x is normal, positive and finite iff it is in
  // [1, 2046], i.e. iff neither difference below is negative.
  const std::uint64_t biased = bits >> 52;
  if ((((biased - 1) | (2046 - biased)) >> 63) != 0 || nr_iterations < 0)
      [[unlikely]] {
    return detail::karp_rsqrt_slow(x, nr_iterations);
  }
  // x = m * 2^e with e even and m in [1,4): an even unbiased exponent
  // (odd biased exponent E) keeps m in [1,2), an odd one moves one factor
  // of 2 into m. `odd` folds that parity in without a branch.
  const std::uint64_t odd = (biased & 1) ^ 1;
  const double m = std::bit_cast<double>((bits & detail::kMantissaMask) |
                                         ((1023 + odd) << 52));
  // 2^(-e/2) with e = biased - 1023 - odd.
  const double scale =
      std::bit_cast<double>(((3069 - biased + odd) >> 1) << 52);
  double y = detail::karp_poly(m);
  // Newton–Raphson for f(y) = y^-2 - m: y' = y*(1.5 - 0.5*m*y*y).
  for (int i = 0; i < nr_iterations; ++i) y = y * (1.5 - 0.5 * m * y * y);
  return y * scale;
}

/// y = karp_rsqrt(x, 2) on four lanes at once, bit-identical to the scalar
/// call per lane. The range reduction, polynomial and Newton steps run in
/// the vector; the table is gathered lane by lane. If any lane is outside the
/// normal positive range, every lane goes through the scalar function. (The
/// vectors travel by reference: by value, their ABI would depend on -mavx.)
inline void karp_rsqrt4(const f64x4& x, f64x4& y) {
  const auto bits = reinterpret_cast<u64x4>(x);
  const u64x4 biased = bits >> 52;
  // The scalar range check, in integer ops: a 64-bit vector compare is
  // split into scalar compares on the baseline ISA.
  const u64x4 outside = ((biased - 1) | (2046 - biased)) >> 63;
  if ((outside[0] | outside[1] | outside[2] | outside[3]) != 0) [[unlikely]] {
    for (int k = 0; k < 4; ++k) y[k] = karp_rsqrt(x[k]);
    return;
  }
  const u64x4 odd = (biased & 1) ^ 1;
  const auto m = reinterpret_cast<f64x4>((bits & detail::kMantissaMask) |
                                         ((1023 + odd) << 52));
  const auto scale =
      reinterpret_cast<f64x4>(((3069 - biased + odd) >> 1) << 52);
  const f64x4 q = (m - 1.0) / (3.0 / kKarpTableSegments);
  f64x4 c0, c1, c2, mid;
  for (int k = 0; k < 4; ++k) {
    int idx = static_cast<int>(q[k]);
    if (idx >= kKarpTableSegments) idx = kKarpTableSegments - 1;
    const detail::KarpSegment& s =
        detail::kKarpTable[static_cast<std::size_t>(idx)];
    c0[k] = s.c0;
    c1[k] = s.c1;
    c2[k] = s.c2;
    mid[k] = s.mid;
  }
  const f64x4 t = m - mid;
  f64x4 e = c0 + t * (c1 + t * c2);
  e = e * (1.5 - 0.5 * m * e * e);
  e = e * (1.5 - 0.5 * m * e * e);
  y = e * scale;
}

/// The raw table+polynomial estimate on the reduced range, exposed for
/// accuracy tests and the ablation bench.
[[nodiscard]] double karp_rsqrt_estimate(double x);

/// Reciprocal cube sqrt, 1/r^3 from r^2: karp_rsqrt(r2) cubed. This is the
/// quantity the gravity kernel actually needs (paper Eq. 1: Gm (xj-xk)/r^3).
[[nodiscard]] inline double karp_rcbrt3(double r2, int nr_iterations = 2) {
  const double y = karp_rsqrt(r2, nr_iterations);
  return y * y * y;
}

}  // namespace bladed::micro
