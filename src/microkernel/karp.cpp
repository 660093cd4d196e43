#include "microkernel/karp.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bladed::micro {

namespace detail {

namespace {

/// Quadratic interpolation of 1/sqrt at the three Chebyshev nodes of each
/// segment — interpolation at Chebyshev nodes is within a small factor of the
/// minimax fit, which is the "Chebyshev polynomial interpolation" step of
/// Karp's scheme.
std::array<KarpSegment, kKarpTableSegments> build_table() {
  std::array<KarpSegment, kKarpTableSegments> table;
  const double width = 3.0 / kKarpTableSegments;  // range [1,4)
  for (int i = 0; i < kKarpTableSegments; ++i) {
    const double a = 1.0 + i * width;
    const double b = a + width;
    const double mid = 0.5 * (a + b);
    const double half = 0.5 * (b - a);
    // Chebyshev nodes for n=3 on [-1,1]: cos(pi*(2k+1)/6) = ±sqrt(3)/2, 0.
    const double n0 = -std::sqrt(3.0) / 2.0 * half;
    const double n1 = 0.0;
    const double n2 = std::sqrt(3.0) / 2.0 * half;
    const double f0 = 1.0 / std::sqrt(mid + n0);
    const double f1 = 1.0 / std::sqrt(mid + n1);
    const double f2 = 1.0 / std::sqrt(mid + n2);
    // Fit f(t) = c0 + c1 t + c2 t^2 through (n0,f0),(n1,f1),(n2,f2); n1 = 0
    // and n0 = -n2 make the solve trivial.
    KarpSegment s;
    s.mid = mid;
    s.c0 = f1;
    s.c1 = (f2 - f0) / (2.0 * n2);
    s.c2 = (f2 + f0 - 2.0 * f1) / (2.0 * n2 * n2);
    table[i] = s;
  }
  return table;
}

/// Split x = m * 2^e with e even and m in [1,4).
struct Reduced {
  double m;
  std::int64_t e;  ///< even
};

Reduced reduce(double x) {
  BLADED_REQUIRE_MSG(x > 0.0 && std::isfinite(x),
                     "karp_rsqrt requires a positive finite argument");
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  std::int64_t e = static_cast<std::int64_t>((bits >> 52) & 0x7FF) - 1023;
  if (e == -1023) {  // subnormal: normalize via multiplication by 2^54
    const double scaled = x * 0x1p54;
    const Reduced r = reduce(scaled);
    return {r.m, r.e - 54};
  }
  double m = std::bit_cast<double>((bits & kMantissaMask) |
                                   (std::uint64_t{1023} << 52));  // [1,2)
  if (e & 1) {  // fold the exponent parity into the mantissa range
    m *= 2.0;
    e -= 1;
  }
  return {m, e};
}

/// 2^(-e/2) for even e, built directly from the exponent field.
double half_exponent_scale(std::int64_t e) {
  const std::int64_t half = -e / 2;
  return std::bit_cast<double>(
      static_cast<std::uint64_t>(half + 1023) << 52);
}

}  // namespace

const std::array<KarpSegment, kKarpTableSegments> kKarpTable = build_table();

double karp_rsqrt_slow(double x, int nr_iterations) {
  BLADED_REQUIRE(nr_iterations >= 0);
  const Reduced r = reduce(x);
  double y = karp_poly(r.m);
  for (int i = 0; i < nr_iterations; ++i) {
    y = y * (1.5 - 0.5 * r.m * y * y);
  }
  return y * half_exponent_scale(r.e);
}

}  // namespace detail

double karp_rsqrt_estimate(double x) {
  const detail::Reduced r = detail::reduce(x);
  return detail::karp_poly(r.m) * detail::half_exponent_scale(r.e);
}

}  // namespace bladed::micro
