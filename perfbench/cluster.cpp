/// `cluster` phase: the paper's experiments as users run them, on the
/// simulated 24-blade MetaBlade (TM5600, Fast Ethernet, host_threads = 1).
/// The inputs are the NPB class-W definitions and the paper-scale Plummer
/// IC, so every exact field can be compared with the seed commit's; the
/// workload seed orders the jobs in each round.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>

#include "arch/registry.hpp"
#include "bench.hpp"
#include "npb/parallel.hpp"
#include "simnet/cluster.hpp"
#include "simnet/comm.hpp"
#include "treecode/direct.hpp"
#include "treecode/ic.hpp"
#include "treecode/morton.hpp"
#include "treecode/parallel.hpp"
#include "treecode/traverse.hpp"
#include "treecode/tree.hpp"

namespace perfbench {
namespace {

using namespace bladed;

constexpr int kRanks = 24;
constexpr int kIsLog2 = 20;
constexpr int kIsBucketsLog2 = 16;
constexpr int kIsIterations = 10;
constexpr int kStencilN = 32;
/// Strong-scaling tail: enough sweeps that the 32^3 stencil, dominated by
/// halo messages at 24 ranks, runs about a second of host time.
constexpr int kStencilSweeps = 800;
constexpr std::size_t kTreeParticles = 24000;
constexpr std::uint64_t kTreeSeed = 1;
/// Every kForceStride-th particle's tree acceleration is compared with
/// direct summation; the bound is on their RMS error relative to the RMS
/// acceleration (theta = 0.7 with quadrupoles gives a few 1e-3).
constexpr std::size_t kForceStride = 64;
constexpr double kForceRmsTolerance = 1e-2;
/// Messages per rank in the traced run's handoff ring.
constexpr int kRingLaps = 400;
/// Rounds of the four jobs every run makes, whatever its workload, so each
/// cluster metric is a median over at least this many samples.
constexpr int kMinRounds = 4;

enum Job { kEp, kIs, kStencil, kTree, kJobs };
constexpr const char* kJobMetric[kJobs] = {"npb_ep_s", "npb_is_s",
                                           "stencil_s", "treecode_s"};
constexpr const char* kJobSpan[kJobs] = {
    "cluster:ep", "cluster:is", "cluster:stencil", "cluster:treecode"};
constexpr const char* kCallSpan[kJobs] = {
    "npb::run_parallel_ep", "npb::run_parallel_is",
    "npb::run_parallel_stencil", "treecode::run_parallel_nbody"};
constexpr const char* kJobLayer[kJobs] = {"npb", "npb", "npb", "treecode"};

/// Exact fields of each 24-rank job as the seed commit computes them.
/// npb_parallel prints the same EP and IS values and table4_treecode
/// --quick the same treecode values.
struct Exact {
  double virtual_s;
  double messages;
  double bytes;
  double work;  ///< EP accepted pairs, IS keys, stencil checksum, interactions
};
constexpr Exact kGolden[kJobs] = {
    {0.22017679799026288, 230, 18492, 26354769},
    {11.374965707106208, 5520, 1447355040, 1048576},
    {2.352609167207258, 38634, 317601300, -2.8727020762175925e-15},
    {0.9807984172878802, 2300, 21983544, 35327461},
};

/// Confines the calling thread, and every thread it starts, to the CPU it
/// is running on until destroyed. With host_threads = 1 the simulator runs
/// one rank at a time, so a job can only ever use one CPU; confined, each
/// rank handoff is a same-CPU switch. Unconfined on a shared host, a
/// handoff-bound job runs up to 4x slower whenever the host deschedules
/// the CPU a woken rank waits for.
class PinToCpu {
 public:
  PinToCpu() {
    saved_ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    const int cpu = sched_getcpu();
    if (saved_ok_ && cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof one, &one);
    }
  }
  ~PinToCpu() {
    if (saved_ok_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

struct Outcome {
  double virtual_s = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double work = 0.0;
};

class ClusterPhase final : public Phase {
 public:
  explicit ClusterPhase(Run& run) : run_(run), rng_(run.stream(0)) {
    cfg_.cpu = &arch::tm5600_633();
    cfg_.network = simnet::NetworkModel::fast_ethernet();
    cfg_.host_threads = 1;
    cfg_.ranks = kRanks;
    tree_.ranks = kRanks;
    tree_.particles = kTreeParticles;
    tree_.seed = kTreeSeed;
    tree_.steps = 1;
    tree_.cpu = cfg_.cpu;
    tree_.network = cfg_.network;
    tree_.host_threads = 1;
    // Warm the simulator's message buffers: the first IS run in a process
    // otherwise spends about a second more on fresh memory. One ranking
    // allocates the same buffers as ten. That first-run cost is real to a
    // user who runs IS once, so the first warm-up's time is kept as a
    // per-layer value; setup_s, a median of set-ups, leaves it out.
    static bool first_in_process = true;
    PinToCpu pin;
    const double t0 = now_s();
    (void)npb::run_parallel_is(cfg_, kIsLog2, kIsBucketsLog2, 1);
    if (first_in_process) {
      run_.results.layer("npb.is_first_ranking_s", "s", now_s() - t0);
      first_in_process = false;
    }
  }

  /// One job; each round of four runs in a seeded order.
  void step() override {
    if (order_.empty()) {
      order_.resize(kJobs);
      std::iota(order_.begin(), order_.end(), 0);
      std::shuffle(order_.begin(), order_.end(), rng_);
    }
    run_job(order_.back());
    order_.pop_back();
    ++jobs_run_;
  }
  [[nodiscard]] double progress() const override {
    return static_cast<double>(jobs_run_) / (kMinRounds * kJobs);
  }

  void finish() override;

 private:
  void run_job(int j);
  void check_job(int j, const Outcome& o);
  void traced_extras();

  Run& run_;
  std::mt19937_64 rng_;
  npb::ParallelNpbConfig cfg_;
  treecode::ParallelConfig tree_;
  Outcome last_[kJobs];
  std::vector<int> order_;
  int jobs_run_ = 0;
  /// (module-call span, job) of every job, traced run only.
  std::vector<std::pair<int, int>> call_spans_;
  npb::ParallelEpResult ep_;
  npb::ParallelIsResult is_;
  npb::ParallelStencilResult stencil_;
  treecode::ParallelResult nbody_;
};

void ClusterPhase::run_job(int j) {
  Tracer& tr = run_.tracer;
  Outcome o;
  PinToCpu pin;
  // The job span itself is unattributed; only the call into the module
  // names a layer, so the checks and bookkeeping around it stay outside.
  Scoped job(tr, kJobSpan[j], "unattributed");
  const int call = tr.begin(kCallSpan[j], kJobLayer[j], job.id());
  const double t0 = now_s();
  switch (j) {
    case kEp:
      ep_ = npb::run_parallel_ep(cfg_, npb::kEpClassW);
      o = {ep_.elapsed_seconds, double(ep_.messages), double(ep_.bytes),
           double(ep_.global.accepted)};
      break;
    case kIs:
      is_ = npb::run_parallel_is(cfg_, kIsLog2, kIsBucketsLog2,
                                 kIsIterations);
      o = {is_.elapsed_seconds, double(is_.messages), double(is_.bytes),
           double(is_.keys)};
      break;
    case kStencil:
      stencil_ = npb::run_parallel_stencil(cfg_, kStencilN, kStencilSweeps);
      o = {stencil_.elapsed_seconds, double(stencil_.messages),
           double(stencil_.bytes), stencil_.solution_checksum};
      break;
    default:
      nbody_ = treecode::run_parallel_nbody(tree_);
      o = {nbody_.elapsed_seconds, double(nbody_.messages),
           double(nbody_.bytes), double(nbody_.interactions)};
      break;
  }
  const double wall = now_s() - t0;
  tr.end(call);
  if (call >= 0) call_spans_.emplace_back(call, j);
  run_.results.sample(kJobMetric[j], "s", wall);
  check_job(j, o);
  last_[j] = o;
}

void ClusterPhase::check_job(int j, const Outcome& o) {
  Results& r = run_.results;
  const std::string job = kJobMetric[j];
  switch (j) {
    case kEp:
      r.check(ep_.global.pairs == (std::uint64_t{1} << npb::kEpClassW) &&
                  ep_.global.count_sum() == ep_.global.accepted,
              "EP class W pair count and annulus counts");
      break;
    case kIs:
      r.check(is_.globally_sorted && is_.ranks_are_permutation,
              "IS class W globally sorted");
      break;
    default:
      break;
  }
  const Exact& g = kGolden[j];
  r.check(o.virtual_s == g.virtual_s && o.messages == g.messages &&
              o.bytes == g.bytes && o.work == g.work,
          job + " exact fields equal the seed commit's");
}

/// Host cost of one message handoff: a ring on 24 ranks where every rank
/// sends one small message to its successor per lap. Everything the engine
/// does per message (arrive/grant, match, wake) is in it; no compute.
double handoff_us() {
  PinToCpu pin;
  simnet::Cluster cluster({.ranks = kRanks});
  const double t0 = now_s();
  cluster.run([](simnet::Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int lap = 0; lap < kRingLaps; ++lap) {
      comm.send_value(next, lap, lap);
      (void)comm.recv_value<int>(prev, lap);
    }
  });
  const double wall = now_s() - t0;
  return wall * 1e6 / static_cast<double>(cluster.total_messages());
}

/// Replays the parallel treecode's two force evaluations serially, calling
/// the treecode layer's public functions directly so its build / LET /
/// force split can be timed. Interactions must match the parallel run.
struct TreeSplit {
  double build_s = 0.0, let_s = 0.0, force_s = 0.0;
  std::uint64_t interactions = 0;
};

void evaluate(std::vector<treecode::ParticleSet>& mine,
              const treecode::GravityParams& g, TreeSplit& out) {
  using treecode::BoundingBox;
  using treecode::MassElement;
  using treecode::Octree;
  const std::size_t n = mine.size();
  std::vector<BoundingBox> boxes(n);
  for (std::size_t r = 0; r < n; ++r) {
    boxes[r] = BoundingBox::containing(mine[r]);
  }
  std::vector<std::vector<std::vector<MassElement>>> exports(n);
  for (std::size_t r = 0; r < n; ++r) {
    double t0 = now_s();
    const Octree local = Octree::build(mine[r]);
    out.build_s += now_s() - t0;
    t0 = now_s();
    exports[r].resize(n);
    for (std::size_t peer = 0; peer < n; ++peer) {
      if (peer == r) continue;
      exports[r][peer] =
          treecode::collect_let(local, mine[r], boxes[peer], g.theta);
    }
    out.let_s += now_s() - t0;
  }
  for (std::size_t r = 0; r < n; ++r) {
    treecode::ParticleSet src = mine[r];
    for (std::size_t peer = 0; peer < n; ++peer) {
      if (peer == r) continue;
      for (const MassElement& e : exports[peer][r]) {
        src.add(e.x, e.y, e.z, e.m);
      }
    }
    double t0 = now_s();
    const Octree let_tree = Octree::build(src);
    out.build_s += now_s() - t0;
    mine[r].zero_accelerations();
    t0 = now_s();
    const treecode::TraversalStats st =
        treecode::compute_forces_on(mine[r], src, let_tree, g);
    out.force_s += now_s() - t0;
    out.interactions += st.interactions();
  }
}

TreeSplit replay_treecode(const treecode::ParallelConfig& cfg) {
  treecode::ParticleSet global =
      treecode::plummer_sphere(cfg.particles, cfg.seed);
  const treecode::BoundingBox box =
      treecode::BoundingBox::containing(global);
  global.apply_permutation(
      treecode::sort_permutation(treecode::morton_keys(global, box)));
  const std::size_t n = global.size();
  std::vector<treecode::ParticleSet> mine;
  for (int r = 0; r < cfg.ranks; ++r) {
    mine.push_back(global.slice(n * static_cast<std::size_t>(r) / cfg.ranks,
                                n * static_cast<std::size_t>(r + 1) /
                                    cfg.ranks));
  }
  TreeSplit out;
  evaluate(mine, cfg.gravity, out);  // prime accelerations
  const double h = 0.5 * cfg.dt;
  for (treecode::ParticleSet& p : mine) {  // kick, drift
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.vx[i] += h * p.ax[i];
      p.vy[i] += h * p.ay[i];
      p.vz[i] += h * p.az[i];
      p.x[i] += cfg.dt * p.vx[i];
      p.y[i] += cfg.dt * p.vy[i];
      p.z[i] += cfg.dt * p.vz[i];
    }
  }
  evaluate(mine, cfg.gravity, out);
  return out;
}

void ClusterPhase::finish() {
  Results& r = run_.results;

  // Plain serial baselines, once per run.
  std::optional<PinToCpu> pin(std::in_place);
  npb::ParallelNpbConfig one = cfg_;
  one.ranks = 1;
  double t0 = now_s();
  const npb::ParallelEpResult ep1 = npb::run_parallel_ep(one, npb::kEpClassW);
  const double ep1_s = now_s() - t0;
  t0 = now_s();
  const npb::ParallelIsResult is1 =
      npb::run_parallel_is(one, kIsLog2, kIsBucketsLog2, kIsIterations);
  const double is1_s = now_s() - t0;
  const npb::ParallelStencilResult st1 =
      npb::run_parallel_stencil(one, kStencilN, kStencilSweeps);
  treecode::ParallelConfig tree1 = tree_;
  tree1.ranks = 1;
  t0 = now_s();
  (void)treecode::run_parallel_nbody(tree1);
  const double tree1_s = now_s() - t0;
  pin.reset();

  r.check(ep1.global.q == ep_.global.q &&
              ep1.global.accepted == ep_.global.accepted,
          "EP annulus counts equal at 1 and 24 ranks");
  r.check(is1.globally_sorted && is1.ranks_are_permutation,
          "IS 1-rank baseline globally sorted");
  r.check(std::memcmp(&st1.solution_checksum, &stencil_.solution_checksum,
                      sizeof(double)) == 0 &&
              std::memcmp(&st1.final_residual, &stencil_.final_residual,
                          sizeof(double)) == 0,
          "stencil 24-rank result bitwise equal to its 1-rank run");

  // Tree accelerations vs direct summation on a fixed subsample, as the
  // RMS error normalized by the RMS acceleration (per-particle relative
  // errors blow up where the net force nearly cancels).
  {
    const treecode::ParticleSet& all = nbody_.particles_out;
    treecode::ParticleSet ref = all;
    ref.zero_accelerations();
    (void)treecode::compute_forces_direct(ref, tree_.gravity);
    treecode::ParticleSet tree_sample, direct_sample;
    for (std::size_t i = 0; i < all.size(); i += kForceStride) {
      tree_sample.append(all.slice(i, i + 1));
      direct_sample.append(ref.slice(i, i + 1));
    }
    const double rms = treecode::rms_force_error(tree_sample, direct_sample);
    std::printf("treecode force check: RMS error %.3g of the RMS "
                "acceleration on %zu particles (tolerance %.0e)\n",
                rms, tree_sample.size(), kForceRmsTolerance);
    r.check(rms < kForceRmsTolerance,
            "treecode accelerations within tolerance of direct summation");
  }

  // Per-layer values every run can give (exact counts, baselines).
  double messages = 0.0, bytes = 0.0, virt = 0.0;
  for (const Outcome& o : last_) {
    messages += o.messages;
    bytes += o.bytes;
    virt += o.virtual_s;
  }
  r.layer("simnet.messages", "count", messages);
  r.layer("simnet.bytes", "bytes", bytes);
  r.layer("simnet.virtual_s", "s", virt);
  r.layer("npb.ep_ranks1_s", "s", ep1_s);
  r.layer("npb.is_ranks1_s", "s", is1_s);
  r.layer("npb.is_growth_x", "x", r.median("npb_is_s") / is1_s);
  r.layer("treecode.ranks1_s", "s", tree1_s);
  r.layer("treecode.interactions", "count", last_[kTree].work);

  for (int j = 0; j < kJobs; ++j) {
    std::printf("exact %-11s virtual %.17g s, %.0f messages, %.0f bytes, "
                "work %.17g\n",
                kJobMetric[j], last_[j].virtual_s, last_[j].messages,
                last_[j].bytes, last_[j].work);
  }

  if (run_.tracer.on()) traced_extras();
}

void ClusterPhase::traced_extras() {
  Results& r = run_.results;
  Tracer& tr = run_.tracer;
  const double us = handoff_us();
  r.layer("simnet.handoff_us", "us", us);

  // Each job's simnet share, estimated as messages x handoff cost, becomes
  // a child span of its module call so the layer split adds up.
  double est = 0.0, wall = 0.0;
  for (const auto& [id, j] : call_spans_) {
    const Span& job = tr.spans()[static_cast<std::size_t>(id)];
    const double d = std::min(last_[j].messages * us * 1e-6,
                              job.end - job.start);
    Span s;
    s.name = "simnet::Cluster handoff (estimated)";
    s.layer = "simnet";
    s.start = job.start;
    s.end = job.start + d;
    s.parent = id;
    s.estimated = true;
    est += d;
    wall += job.end - job.start;
    tr.add(std::move(s));
  }
  r.layer("simnet.share", "ratio", wall > 0.0 ? est / wall : 0.0);

  // The stencil once unconfined, as npb_parallel and users run it. The
  // timed jobs are confined to one CPU (see PinToCpu), which keeps the cost
  // of waking a rank on another CPU out of stencil_s; this value keeps it in.
  const double t0 = now_s();
  (void)npb::run_parallel_stencil(cfg_, kStencilN, kStencilSweeps);
  r.layer("simnet.stencil_unpinned_s", "s", now_s() - t0);

  const TreeSplit split = replay_treecode(tree_);
  r.layer("treecode.build_s", "s", split.build_s);
  r.layer("treecode.let_s", "s", split.let_s);
  r.layer("treecode.force_s", "s", split.force_s);
  r.check(static_cast<double>(split.interactions) == last_[kTree].work,
          "treecode replay interactions equal the parallel run's");
}

}  // namespace

std::unique_ptr<Phase> make_cluster(Run& run) {
  return std::make_unique<ClusterPhase>(run);
}

}  // namespace perfbench
