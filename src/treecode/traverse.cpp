#include "treecode/traverse.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "microkernel/karp.hpp"

namespace bladed::treecode {

TraversalStats& TraversalStats::operator+=(const TraversalStats& o) {
  pp += o.pp;
  pn += o.pn;
  pn_quad += o.pn_quad;
  mac_tests += o.mac_tests;
  visited += o.visited;
  ops += o.ops;
  return *this;
}

OpCounter interaction_ops(RsqrtImpl impl) {
  OpCounter o;
  if (impl == RsqrtImpl::kLibm) {
    // deltas 3, r2 2+1(softening), acc accumulate 3, pot accumulate 1
    o.fadd = 10;
    // squares 3, r2*r 1, Gm 1, s*d 3, pot=s*r2 1
    o.fmul = 9;
    o.fdiv = 1;   // s = Gm / (r2*r)
    o.fsqrt = 1;  // r = sqrt(r2)
    o.load = 5;   // source x,y,z,m + node/leaf bookkeeping
    o.iop = 4;
    o.branch = 1;
  } else {
    // deltas 3, r2 2+1, Karp poly 3 + NR 2, acc 3, pot 1
    o.fadd = 15;
    // squares 3, poly 2, NR 8, rescale 1, cube 2, Gm 1, s=Gm*y3 1, s*d 3,
    // pot=Gm*y 1
    o.fmul = 22;
    o.load = 8;  // + the 3-coefficient Karp table segment
    o.iop = 10;  // + exponent/mantissa manipulation
    o.branch = 1;
  }
  return o;
}

OpCounter quadrupole_ops() {
  OpCounter o;
  o.fmul = 22;  // Q*d (9), d.Qd (3), y^5/y^7 (2), term scaling (8)
  o.fadd = 12;  // Q*d (6), d.Qd (2), accumulate (4)
  o.load = 6;   // the packed tensor
  return o;
}

OpCounter mac_test_ops() {
  OpCounter o;
  o.fadd = 5;  // deltas to the node COM + d2 accumulation
  o.fmul = 4;  // squares + theta^2 * d2
  o.load = 5;  // com, half, node header
  o.iop = 2;   // compare + stack bookkeeping
  o.branch = 1;
  return o;
}

namespace {

OpCounter visit_ops() {
  OpCounter o;
  o.iop = 4;
  o.load = 2;
  o.branch = 1;
  return o;
}

using micro::f64x4;
using micro::u64x4;

/// Source list emitted by a walk: point masses (x, y, z, G·m) as SoA
/// streams in walk order, and the (position, node) marks of the entries
/// whose cell adds a quadrupole term right after its monopole term. The
/// streams are storage: entries [0, size) are real, and pad() repeats the
/// last one up to a multiple of 4 so every 4-lane chunk loads valid sources
/// (the padding lanes are computed but never added).
struct SourceList {
  std::vector<double> x, y, z, gm;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> quad;
  std::size_t size = 0;

  void clear() {
    size = 0;
    quad.clear();
  }

  /// Make room for `extra` more entries and the padding after them.
  void reserve(std::size_t extra) {
    const std::size_t need = size + extra + 3;
    if (need <= x.size()) return;
    const std::size_t cap = std::max(need, 2 * x.size());
    x.resize(cap);
    y.resize(cap);
    z.resize(cap);
    gm.resize(cap);
  }

  void push(double sx, double sy, double sz, double sgm) {
    reserve(1);
    x[size] = sx;
    y[size] = sy;
    z[size] = sz;
    gm[size] = sgm;
    ++size;
  }

  /// Particles [first, first + count) of `src`, with their G·m in `gm_src`.
  void append(const ParticleSet& src, const std::vector<double>& gm_src,
              std::uint32_t first, std::uint32_t count) {
    reserve(count);
    const std::size_t bytes = count * sizeof(double);
    std::memcpy(&x[size], &src.x[first], bytes);
    std::memcpy(&y[size], &src.y[first], bytes);
    std::memcpy(&z[size], &src.z[first], bytes);
    std::memcpy(&gm[size], &gm_src[first], bytes);
    size += count;
  }

  void pad() {
    for (std::size_t k = size; size > 0 && k % 4 != 0; ++k) {
      x[k] = x[size - 1];
      y[k] = y[size - 1];
      z[k] = z[size - 1];
      gm[k] = gm[size - 1];
    }
  }
};

/// G·m of every source particle, formed once per call rather than once per
/// list entry (the same product, so the same bits).
std::vector<double> scaled_masses(const ParticleSet& src, double G) {
  std::vector<double> gm(src.size());
  for (std::size_t j = 0; j < gm.size(); ++j) gm[j] = G * src.m[j];
  return gm;
}

struct Accumulator {
  double ax = 0.0, ay = 0.0, az = 0.0, pot = 0.0;
};

/// Quadrupole term of an accepted cell with packed tensor q at offset
/// d = com - p, y = 1/|d|_softened:
/// a_quad = G[-(Q d)/r^5 + 2.5 (d.Qd) d / r^7]; phi_quad = -G (d.Qd)/(2 r^5).
inline void add_quadrupole(const double* q, double G, double dx, double dy,
                           double dz, double y, Accumulator& a) {
  const double u2 = y * y;
  const double y5 = u2 * u2 * y;
  const double y7 = y5 * u2;
  const double qdx = q[0] * dx + q[1] * dy + q[2] * dz;
  const double qdy = q[1] * dx + q[3] * dy + q[4] * dz;
  const double qdz = q[2] * dx + q[4] * dy + q[5] * dz;
  const double dqd = dx * qdx + dy * qdy + dz * qdz;
  const double radial = 2.5 * G * dqd * y7;
  a.ax += G * -qdx * y5 + radial * dx;
  a.ay += G * -qdy * y5 + radial * dy;
  a.az += G * -qdz * y5 + radial * dz;
  a.pot -= 0.5 * G * dqd * y5;
}

/// Add the softened pull of list entries [begin, end) on the target at
/// (px,py,pz) to `acc`; `begin` is a multiple of 4. The independent terms
/// (offset, r², reciprocal square root, s·d, potential) are computed four
/// entries at a time; the sums then take them one by one in list order, so
/// every target accumulates exactly as an entry-by-entry loop would. A self
/// entry (exact position coincidence, r² = 0) contributes +0.0, which leaves
/// the sums unchanged: they start at +0.0 and can never become -0.0. With
/// kQuad, each marked entry adds its cell's quadrupole term right after its
/// monopole term. Returns the number of non-self entries.
///
/// Lane masks are built with integer ops (a 64-bit vector compare would be
/// split into scalar compares on the baseline ISA), and the vectors stay
/// local: passed by value, their ABI would depend on -mavx.
template <RsqrtImpl Impl, bool kQuad>
std::uint64_t evaluate(const SourceList& l, std::size_t begin, std::size_t end,
                       double px, double py, double pz, double eps2,
                       const std::vector<Node>& nodes, double G,
                       Accumulator& acc) {
  constexpr std::uint64_t kOneBits = 0x3FF0000000000000ULL;  // 1.0
  auto mark = std::lower_bound(
      l.quad.begin(), l.quad.end(), begin,
      [](const auto& m, std::size_t pos) { return m.first < pos; });
  std::uint64_t nonself = 0;
  for (std::size_t j = begin; j < end; j += 4) {
    f64x4 sx, sy, sz, gm;
    std::memcpy(&sx, &l.x[j], sizeof sx);
    std::memcpy(&sy, &l.y[j], sizeof sy);
    std::memcpy(&sz, &l.z[j], sizeof sz);
    std::memcpy(&gm, &l.gm[j], sizeof gm);
    const f64x4 dx = sx - px;
    const f64x4 dy = sy - py;
    const f64x4 dz = sz - pz;
    const f64x4 r2raw = dx * dx + dy * dy + dz * dz;
    // All ones in the lanes whose r2raw is not +0.0 (a sum of squares is
    // never -0.0): v | -v has its top bit set iff v != 0.
    const auto raw_bits = reinterpret_cast<u64x4>(r2raw);
    const u64x4 keep = -((raw_bits | -raw_bits) >> 63);
    const f64x4 r2 = r2raw + eps2;
    f64x4 s, phi, y;
    if constexpr (Impl == RsqrtImpl::kLibm) {
      f64x4 r;
      for (int k = 0; k < 4; ++k) r[k] = std::sqrt(r2[k]);
      s = gm / (r2 * r);
      phi = s * r2;  // gm / r
      y = r;         // the quadrupole term takes 1/r
    } else {
      // r² = 0 only on a self entry with zero softening; its terms are
      // cleared below, so evaluate it at 1 rather than outside Karp's domain.
      const auto bits = reinterpret_cast<u64x4>(r2);
      const u64x4 nonzero = -((bits | -bits) >> 63);
      micro::karp_rsqrt4(
          reinterpret_cast<f64x4>((bits & nonzero) | (kOneBits & ~nonzero)),
          y);
      s = gm * (y * y * y);
      phi = gm * y;
    }
    const auto tx =
        reinterpret_cast<f64x4>(reinterpret_cast<u64x4>(s * dx) & keep);
    const auto ty =
        reinterpret_cast<f64x4>(reinterpret_cast<u64x4>(s * dy) & keep);
    const auto tz =
        reinterpret_cast<f64x4>(reinterpret_cast<u64x4>(s * dz) & keep);
    const auto tp =
        reinterpret_cast<f64x4>(reinterpret_cast<u64x4>(phi) & keep);
    const std::size_t n = std::min<std::size_t>(4, end - j);
    for (std::size_t k = 0; k < n; ++k) {
      acc.ax += tx[k];
      acc.ay += ty[k];
      acc.az += tz[k];
      acc.pot -= tp[k];
      nonself += keep[k] & 1;
      if constexpr (kQuad) {
        if (mark != l.quad.end() && mark->first == j + k) {
          const double yq = Impl == RsqrtImpl::kLibm ? 1.0 / y[k] : y[k];
          add_quadrupole(nodes[mark->second].quad, G, dx[k], dy[k], dz[k], yq,
                         acc);
          ++mark;
        }
      }
    }
  }
  return nonself;
}

template <RsqrtImpl Impl>
TraversalStats traverse(ParticleSet& targets, const ParticleSet& src,
                        const Octree& tree, const GravityParams& params,
                        std::size_t first, std::size_t last) {
  TraversalStats stats;
  const double eps2 = params.softening * params.softening;
  const double theta2 = params.theta * params.theta;
  const auto& nodes = tree.nodes();
  const std::vector<double> gm = scaled_masses(src, params.G);
  std::vector<std::uint32_t> stack;
  stack.reserve(128);
  SourceList list;

  for (std::size_t i = first; i < last; ++i) {
    const double px = targets.x[i], py = targets.y[i], pz = targets.z[i];
    // Walk: one MAC decision per popped node, children popped last-first,
    // accepted cells and opened leaves' particles appended in that order.
    list.clear();
    std::uint64_t cells = 0;
    stack.push_back(0);
    while (!stack.empty()) {
      const std::uint32_t idx = stack.back();
      const Node& n = nodes[idx];
      stack.pop_back();
      ++stats.visited;
      if (n.mass == 0.0 || n.count == 0) continue;

      const double dx = n.com[0] - px;
      const double dy = n.com[1] - py;
      const double dz = n.com[2] - pz;
      const double d2 = dx * dx + dy * dy + dz * dz;
      const double size = 2.0 * n.half;
      ++stats.mac_tests;
      if (size * size < theta2 * d2) {
        // Accept: monopole (plus optional quadrupole) with the cell.
        if (params.quadrupole) list.quad.emplace_back(list.size, idx);
        list.push(n.com[0], n.com[1], n.com[2], params.G * n.mass);
        ++cells;
      } else if (n.leaf) {
        list.append(src, gm, n.first, n.count);
      } else {
        for (std::uint8_t c = 0; c < n.child_count; ++c)
          stack.push_back(n.child[c]);
      }
    }
    list.pad();

    // Evaluate. An accepted cell is never a self entry: the MAC needs
    // d² > 0, and d² is the entry's r² bit for bit.
    Accumulator acc;
    const std::uint64_t nonself =
        params.quadrupole
            ? evaluate<Impl, true>(list, 0, list.size, px, py, pz, eps2,
                                   nodes, params.G, acc)
            : evaluate<Impl, false>(list, 0, list.size, px, py, pz, eps2,
                                    nodes, params.G, acc);
    stats.pp += nonself - cells;
    stats.pn += cells;
    if (params.quadrupole) stats.pn_quad += cells;
    targets.ax[i] += acc.ax;
    targets.ay[i] += acc.ay;
    targets.az[i] += acc.az;
    targets.pot[i] += acc.pot;
  }

  const RsqrtImpl impl = params.rsqrt;
  stats.ops = interaction_ops(impl) * (stats.pp + stats.pn) +
              quadrupole_ops() * stats.pn_quad +
              mac_test_ops() * stats.mac_tests + visit_ops() * stats.visited;
  // The op model charges the quadrupole path one more reciprocal sqrt per
  // cell, as the modeled kernel computes it (the host evaluation reuses the
  // monopole's).
  if (params.quadrupole) {
    OpCounter rsqrt_extra;
    if (impl == RsqrtImpl::kLibm) {
      rsqrt_extra.fsqrt = 1;
      rsqrt_extra.fdiv = 1;
    } else {
      rsqrt_extra.fmul = 11;
      rsqrt_extra.fadd = 5;
      rsqrt_extra.load = 3;
      rsqrt_extra.iop = 8;
    }
    stats.ops += rsqrt_extra * stats.pn_quad;
  }
  return stats;
}

}  // namespace

TraversalStats compute_forces(ParticleSet& p, const Octree& tree,
                              const GravityParams& params, std::size_t first,
                              std::size_t last) {
  BLADED_REQUIRE(first <= last && last <= p.size());
  BLADED_REQUIRE(tree.particle_count() == p.size());
  BLADED_REQUIRE(params.theta > 0.0);
  return params.rsqrt == RsqrtImpl::kLibm
             ? traverse<RsqrtImpl::kLibm>(p, p, tree, params, first, last)
             : traverse<RsqrtImpl::kKarp>(p, p, tree, params, first, last);
}

TraversalStats compute_forces(ParticleSet& p, const Octree& tree,
                              const GravityParams& params) {
  return compute_forces(p, tree, params, 0, p.size());
}

namespace {

/// List-evaluation tile: 4 SoA streams * 8 B * 1024 = 32 KiB per tile,
/// resident while it is swept over every particle of the group.
constexpr std::size_t kListTile = 1024;

template <RsqrtImpl Impl>
TraversalStats traverse_grouped(ParticleSet& p, const Octree& tree,
                                const GravityParams& params) {
  TraversalStats stats;
  const double eps2 = params.softening * params.softening;
  const double theta2 = params.theta * params.theta;
  const auto& nodes = tree.nodes();
  const std::vector<double> gm = scaled_masses(p, params.G);

  std::vector<std::uint32_t> stack;
  stack.reserve(128);
  // Point masses (leaf particles, and accepted cells when the quadrupole is
  // off) stream through `points` in walk order; with the quadrupole on,
  // accepted cells go to `cells` instead and are evaluated first.
  SourceList points, cells;
  // Per-target partial sums, carried across list tiles.
  std::vector<Accumulator> sums;

  for (const Node& group : nodes) {
    if (!group.leaf || group.count == 0) continue;

    // One walk for the whole group: accept against the group's cell.
    points.clear();
    cells.clear();
    stack.push_back(0);
    while (!stack.empty()) {
      const std::uint32_t idx = stack.back();
      const Node& n = nodes[idx];
      stack.pop_back();
      ++stats.visited;
      if (n.mass == 0.0 || n.count == 0) continue;
      const double dmin2 = BoundingBox::dist2_to_cell(
          n.com[0], n.com[1], n.com[2], group.center, group.half);
      const double size = 2.0 * n.half;
      ++stats.mac_tests;
      if (size * size < theta2 * dmin2) {
        // Monopole-only cells join the point-mass stream and tally as pp,
        // exactly like the historical null-quad list entries.
        if (params.quadrupole) {
          cells.quad.emplace_back(cells.size, idx);
          cells.push(n.com[0], n.com[1], n.com[2], params.G * n.mass);
        } else {
          points.push(n.com[0], n.com[1], n.com[2], params.G * n.mass);
        }
      } else if (n.leaf) {
        points.append(p, gm, n.first, n.count);
      } else {
        for (std::uint8_t c = 0; c < n.child_count; ++c)
          stack.push_back(n.child[c]);
      }
    }
    points.pad();
    cells.pad();

    const std::uint32_t gfirst = group.first;
    const std::size_t gcount = group.count;
    sums.assign(gcount, Accumulator{});

    // Tiles outer, so each 32 KiB slab of a list is swept over every group
    // particle while cache-hot; each target still takes the entries in
    // ascending list order. Cell entries first (quadrupole runs only): pn
    // on a non-coincident monopole, pn_quad unconditionally.
    for (std::size_t c0 = 0; c0 < cells.size; c0 += kListTile) {
      const std::size_t c1 = std::min(cells.size, c0 + kListTile);
      for (std::size_t k = 0; k < gcount; ++k) {
        const std::size_t i = gfirst + k;
        stats.pn += evaluate<Impl, true>(cells, c0, c1, p.x[i], p.y[i],
                                         p.z[i], eps2, nodes, params.G,
                                         sums[k]);
        stats.pn_quad += c1 - c0;
      }
    }
    for (std::size_t t0 = 0; t0 < points.size; t0 += kListTile) {
      const std::size_t t1 = std::min(points.size, t0 + kListTile);
      for (std::size_t k = 0; k < gcount; ++k) {
        const std::size_t i = gfirst + k;
        stats.pp += evaluate<Impl, false>(points, t0, t1, p.x[i], p.y[i],
                                          p.z[i], eps2, nodes, params.G,
                                          sums[k]);
      }
    }

    for (std::size_t k = 0; k < gcount; ++k) {
      const std::size_t i = gfirst + k;
      p.ax[i] += sums[k].ax;
      p.ay[i] += sums[k].ay;
      p.az[i] += sums[k].az;
      p.pot[i] += sums[k].pot;
    }
  }

  stats.ops = interaction_ops(params.rsqrt) * (stats.pp + stats.pn) +
              quadrupole_ops() * stats.pn_quad +
              mac_test_ops() * stats.mac_tests + visit_ops() * stats.visited;
  return stats;
}

}  // namespace

TraversalStats compute_forces_grouped(ParticleSet& p, const Octree& tree,
                                      const GravityParams& params) {
  BLADED_REQUIRE(tree.particle_count() == p.size());
  BLADED_REQUIRE(params.theta > 0.0);
  return params.rsqrt == RsqrtImpl::kLibm
             ? traverse_grouped<RsqrtImpl::kLibm>(p, tree, params)
             : traverse_grouped<RsqrtImpl::kKarp>(p, tree, params);
}

TraversalStats compute_forces_on(ParticleSet& targets, const ParticleSet& src,
                                 const Octree& tree,
                                 const GravityParams& params) {
  BLADED_REQUIRE(tree.particle_count() == src.size());
  BLADED_REQUIRE(params.theta > 0.0);
  return params.rsqrt == RsqrtImpl::kLibm
             ? traverse<RsqrtImpl::kLibm>(targets, src, tree, params, 0,
                                          targets.size())
             : traverse<RsqrtImpl::kKarp>(targets, src, tree, params, 0,
                                          targets.size());
}

}  // namespace bladed::treecode
