#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "arch/cost_model.hpp"
#include "common/error.hpp"
#include "common/npb_rand.hpp"
#include "fault/checkpoint.hpp"
#include "npb/parallel.hpp"
#include "npb/parallel_internal.hpp"
#include "simnet/cluster.hpp"
#include "simnet/comm.hpp"

namespace bladed::npb {

namespace {

arch::KernelProfile ep_ft_chars(const OpCounter& ops) {
  arch::KernelProfile p;
  p.name = "npb/ep-parallel-ft";
  p.ops = ops;
  p.miss_intensity = 0.02;
  p.dependency = 0.30;
  return p;
}

arch::KernelProfile is_ft_chars(const OpCounter& ops) {
  arch::KernelProfile p;
  p.name = "npb/is-parallel-ft";
  p.ops = ops;
  p.miss_intensity = 0.8;
  p.dependency = 0.25;
  return p;
}

/// Fold the per-attempt fault accounting into the report after a failed
/// attempt; returns false once max_restarts is exhausted (caller rethrows).
bool absorb_failure(NpbFtReport& ft, const simnet::Cluster& cluster,
                    double last_commit_time, double penalty,
                    int max_restarts, double& consumed) {
  const double elapsed = cluster.elapsed_seconds();
  consumed += elapsed + penalty;
  ft.lost_virtual_seconds += (elapsed - last_commit_time) + penalty;
  ft.fault_stats += cluster.fault_stats();
  if (ft.restarts >= max_restarts) return false;
  ++ft.restarts;
  ++ft.attempts;
  return true;
}

void absorb_success(NpbFtReport& ft, const simnet::Cluster& cluster,
                    double& consumed) {
  consumed += cluster.elapsed_seconds();
  ft.fault_stats += cluster.fault_stats();
  ft.total_virtual_seconds = consumed;
}

simnet::Cluster::Config cluster_config(const NpbFaultConfig& cfg,
                                       double consumed) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.schedule = cfg.schedule;
  plan.transport = cfg.transport;
  plan.seed = cfg.fault_seed;
  plan.time_offset = consumed;
  return {.ranks = cfg.base.ranks, .network = cfg.base.network,
          .fault = plan, .host_threads = cfg.base.host_threads};
}

}  // namespace

ParallelEpFtResult run_parallel_ep_ft(const NpbFaultConfig& cfg, int m,
                                      int batches, std::uint64_t seed) {
  BLADED_REQUIRE_MSG(cfg.base.cpu != nullptr, "config.cpu is required");
  BLADED_REQUIRE(cfg.base.ranks >= 1);
  BLADED_REQUIRE(m >= 4 && m <= 32);
  BLADED_REQUIRE(batches >= 1);
  BLADED_REQUIRE(cfg.max_restarts >= 0);
  const std::uint64_t total_pairs = std::uint64_t{1} << m;
  const int nranks = cfg.base.ranks;

  ParallelEpFtResult out;
  fault::CheckpointStore store;
  std::atomic<int> committed{-1};  ///< batches completed by every rank
  std::atomic<int> ckpt_count{0};
  std::atomic<double> last_commit_time{0.0};
  double consumed = 0.0;
  std::vector<EpResult> locals(static_cast<std::size_t>(nranks));

  for (;;) {
    simnet::Cluster cluster(cluster_config(cfg, consumed));
    last_commit_time.store(0.0);
    const int resume = std::max(committed.load(), 0);
    if (out.ft.restarts > 0) out.ft.resumed_from = resume;

    try {
      cluster.run([&](simnet::Comm& comm) {
        const int r = comm.rank();
        const auto n = static_cast<std::uint64_t>(comm.size());
        const std::uint64_t first =
            total_pairs * static_cast<std::uint64_t>(r) / n;
        const std::uint64_t last =
            total_pairs * static_cast<std::uint64_t>(r + 1) / n;

        EpResult acc;
        int start_batch = 0;
        if (committed.load() > 0) {
          const auto blob = store.load(r, committed.load());
          if (blob && blob->size() == sizeof(EpResult)) {
            std::memcpy(&acc, blob->data(), sizeof(EpResult));
            start_batch = committed.load();
          }
        }

        const auto nb = static_cast<std::uint64_t>(batches);
        for (int b = start_batch; b < batches; ++b) {
          const std::uint64_t b0 =
              first + (last - first) * static_cast<std::uint64_t>(b) / nb;
          const std::uint64_t b1 =
              first +
              (last - first) * (static_cast<std::uint64_t>(b) + 1) / nb;
          const EpResult part = run_ep_block(b0, b1 - b0, seed);
          comm.compute(
              arch::estimate_seconds(*cfg.base.cpu, ep_ft_chars(part.ops)));
          acc.sx += part.sx;
          acc.sy += part.sy;
          for (std::size_t i = 0; i < acc.q.size(); ++i) acc.q[i] += part.q[i];
          acc.pairs += part.pairs;
          acc.accepted += part.accepted;
          acc.ops += part.ops;

          if (b + 1 < batches) {
            comm.barrier();
            std::vector<std::byte> blob(sizeof(EpResult));
            std::memcpy(blob.data(), &acc, sizeof(EpResult));
            store.save(r, b + 1, std::move(blob));
            comm.barrier();
            if (r == 0) {
              committed.store(b + 1);
              ckpt_count.fetch_add(1);
              last_commit_time.store(comm.now());
            }
          }
        }

        acc.sx = comm.allreduce(acc.sx, std::plus<double>{});
        acc.sy = comm.allreduce(acc.sy, std::plus<double>{});
        std::vector<std::uint64_t> q(acc.q.begin(), acc.q.end());
        q = comm.allreduce_vec(std::move(q), std::plus<std::uint64_t>{});
        std::copy(q.begin(), q.end(), acc.q.begin());
        acc.accepted = comm.allreduce(acc.accepted, std::plus<std::uint64_t>{});
        acc.pairs = comm.allreduce(acc.pairs, std::plus<std::uint64_t>{});
        locals[static_cast<std::size_t>(r)] = acc;
      });
    } catch (const FaultError&) {
      if (!absorb_failure(out.ft, cluster, last_commit_time.load(),
                          cfg.restart_penalty_seconds, cfg.max_restarts,
                          consumed)) {
        throw;
      }
      continue;
    }

    absorb_success(out.ft, cluster, consumed);
    out.ft.checkpoints = ckpt_count.load();
    out.ep.global = locals[0];
    out.ep.global.ops = OpCounter{};
    for (const EpResult& l : locals) out.ep.global.ops += l.ops;
    out.ep.elapsed_seconds = cluster.elapsed_seconds();
    for (int r = 0; r < nranks; ++r) {
      out.ep.compute_seconds = std::max(out.ep.compute_seconds,
                                        cluster.stats(r).compute_seconds);
    }
    out.ep.bytes = cluster.total_bytes();
    out.ep.messages = cluster.total_messages();
    return out;
  }
}

ParallelIsFtResult run_parallel_is_ft(const NpbFaultConfig& cfg, int n_log2,
                                      int bmax_log2, int iterations,
                                      std::uint64_t seed) {
  BLADED_REQUIRE_MSG(cfg.base.cpu != nullptr, "config.cpu is required");
  BLADED_REQUIRE(cfg.base.ranks >= 1);
  BLADED_REQUIRE(n_log2 >= 4 && n_log2 <= 26);
  BLADED_REQUIRE(bmax_log2 >= 3 && bmax_log2 <= 24);
  BLADED_REQUIRE(iterations >= 1);
  BLADED_REQUIRE(cfg.max_restarts >= 0);

  const std::uint64_t n = std::uint64_t{1} << n_log2;
  const std::uint64_t bmax = std::uint64_t{1} << bmax_log2;
  const int nranks = cfg.base.ranks;

  ParallelIsFtResult out;
  out.is.keys = n;
  fault::CheckpointStore store;
  std::atomic<int> committed{0};  ///< ranking iterations fully completed
  std::atomic<int> ckpt_count{0};
  std::atomic<double> last_commit_time{0.0};
  double consumed = 0.0;
  std::vector<std::vector<std::uint32_t>> final_keys(
      static_cast<std::size_t>(nranks));
  std::vector<std::vector<std::uint32_t>> final_ranks(
      static_cast<std::size_t>(nranks));

  for (;;) {
    simnet::Cluster cluster(cluster_config(cfg, consumed));
    last_commit_time.store(0.0);
    if (out.ft.restarts > 0) out.ft.resumed_from = committed.load();

    try {
      cluster.run([&](simnet::Comm& comm) {
        const int r = comm.rank();
        const auto nr = static_cast<std::uint64_t>(comm.size());
        const std::uint64_t first = n * static_cast<std::uint64_t>(r) / nr;
        const std::uint64_t last =
            n * static_cast<std::uint64_t>(r + 1) / nr;
        const std::uint64_t mine = last - first;

        // Key slice: from the last committed checkpoint if one exists,
        // otherwise regenerated from the NPB stream.
        std::vector<std::uint32_t> keys;
        int start_iter = 1;
        if (committed.load() > 0) {
          const auto blob = store.load(r, committed.load());
          if (blob && blob->size() == mine * sizeof(std::uint32_t)) {
            keys.resize(mine);
            std::memcpy(keys.data(), blob->data(), blob->size());
            start_iter = committed.load() + 1;
          }
        }
        if (keys.empty()) {
          keys.resize(mine);
          NpbRandom rng(seed);
          rng.set_state(NpbRandom::skip(seed, 4 * first));
          for (auto& k : keys) {
            const double a = rng.next() + rng.next() + rng.next() + rng.next();
            k = static_cast<std::uint32_t>(a * 0.25 *
                                           static_cast<double>(bmax));
            if (k >= bmax) k = static_cast<std::uint32_t>(bmax - 1);
          }
          OpCounter gen;
          gen.fadd = 4 * mine;
          gen.fmul = 6 * mine;
          gen.iop = 12 * mine;
          gen.store = mine;
          comm.compute(
              arch::estimate_seconds(*cfg.base.cpu, is_ft_chars(gen)));
        }

        std::vector<std::uint32_t> rank_of(mine);
        std::vector<std::uint32_t> counts(bmax);
        for (int iter = start_iter; iter <= iterations; ++iter) {
          const auto g1 = static_cast<std::uint64_t>(iter);
          const std::uint64_t g2 = static_cast<std::uint64_t>(iter) + n / 2;
          if (g1 >= first && g1 < last) {
            keys[g1 - first] = static_cast<std::uint32_t>(iter);
          }
          if (g2 >= first && g2 < last) {
            keys[g2 - first] = static_cast<std::uint32_t>(
                bmax - static_cast<std::uint64_t>(iter));
          }

          detail::rank_keys(comm, keys, counts, rank_of);

          OpCounter per_iter;
          per_iter.iop = 3 * mine + 2 * bmax * (1 + nr);
          per_iter.load = 2 * mine + bmax * (1 + nr);
          per_iter.store = 2 * mine + bmax;
          per_iter.branch = mine / 8 + bmax / 8;
          comm.compute(
              arch::estimate_seconds(*cfg.base.cpu, is_ft_chars(per_iter)));

          if (iter < iterations) {
            comm.barrier();
            std::vector<std::byte> blob(mine * sizeof(std::uint32_t));
            std::memcpy(blob.data(), keys.data(), blob.size());
            store.save(r, iter, std::move(blob));
            comm.barrier();
            if (r == 0) {
              committed.store(iter);
              ckpt_count.fetch_add(1);
              last_commit_time.store(comm.now());
            }
          }
        }
        final_keys[static_cast<std::size_t>(r)] = std::move(keys);
        final_ranks[static_cast<std::size_t>(r)] = std::move(rank_of);
        comm.barrier();
      });
    } catch (const FaultError&) {
      if (!absorb_failure(out.ft, cluster, last_commit_time.load(),
                          cfg.restart_penalty_seconds, cfg.max_restarts,
                          consumed)) {
        throw;
      }
      continue;
    }

    absorb_success(out.ft, cluster, consumed);
    out.ft.checkpoints = ckpt_count.load();

    detail::verify_ranking(final_keys, final_ranks, out.is);
    out.is.elapsed_seconds = cluster.elapsed_seconds();
    for (int r = 0; r < nranks; ++r) {
      out.is.compute_seconds = std::max(out.is.compute_seconds,
                                        cluster.stats(r).compute_seconds);
    }
    out.is.bytes = cluster.total_bytes();
    out.is.messages = cluster.total_messages();
    return out;
  }
}

}  // namespace bladed::npb
