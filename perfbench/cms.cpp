/// `cms` phase: the 12-program prove corpus plus ablation_cms's dispatch
/// programs, run cold (a fresh engine per program at opt level 2 with the
/// optimizer, prover, JIT and certified budgets attached) and warm (repeated
/// runs on warmed tier-2 and tier-3 engines). Cold is heavy on optimize,
/// translate and compile, warm on dispatch, so a change that speeds
/// dispatch but adds per-run set-up shows. The workload seed fills each
/// program's initial memory and orders the programs; CMS control flow never
/// depends on memory values, so cycle counts stay exact.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "cms/engine.hpp"
#include "cms/programs.hpp"
#include "jit/jit.hpp"
#include "opt/opt.hpp"
#include "prove/prove.hpp"

namespace perfbench {
namespace {

using namespace bladed;

/// Warm runs of each program per timed warm set.
constexpr int kWarmReps = 4;
/// Rounds (cold, warm tier-2 and warm tier-3 set) every run makes, whatever
/// its workload, so each cms metric is a median over at least this many
/// samples.
constexpr int kMinRounds = 10;

struct Prog {
  std::string name;
  cms::Program program;
  std::size_t mem_doubles = 0;
  cms::MachineState initial;
};

/// Cycle counts the seed commit's engine charges (control flow is
/// data-independent, so they hold for every seed).
struct Golden {
  const char* name;
  std::uint64_t cold_cycles;    ///< fresh engine, opt level 2, tier-3
  std::uint64_t warm_cycles;    ///< warmed cms_43x engine, one run
  std::uint64_t interp_cycles;  ///< interpret_only_cycles
};
constexpr Golden kGolden[] = {
    {"branchy_n16", 9146, 147, 1685},
    {"daxpy_n32", 4947, 354, 3155},
    {"dispatch_branchy_n200000", 1809002, 1800003, 20100077},
    {"dispatch_daxpy_n65536", 725491, 720898, 6357043},
    {"many_blocks_b8_r5", 17148, 293, 2394},
    {"naive_daxpy_n256", 7838, 2819, 35136},
    {"naive_daxpy_n32", 5598, 355, 4448},
    {"naive_mg_stencil_n256", 11668, 5891, 43072},
    {"naive_mg_stencil_n32", 7188, 739, 5440},
    {"nr_rsqrt_i8", 4772, 133, 912},
    {"strided_sum_n256", 4861, 1540, 17485},
    {"strided_sum_n64", 3709, 388, 4429},
    {"unrolled_daxpy_n30_u2", 5390, 137, 1701},
    {"unrolled_daxpy_n30_u3", 7319, 102, 1571},
};

std::vector<Prog> make_programs(std::mt19937_64& rng) {
  std::vector<cms::NamedProgram> named = cms::prove_corpus();
  // ablation_cms (e)'s dispatch programs at their ablation sizes.
  constexpr std::int64_t kDaxpyN = 65536;
  const std::size_t big = static_cast<std::size_t>(2 * kDaxpyN + 8);
  named.push_back({"dispatch_daxpy_n65536", cms::daxpy_program(kDaxpyN), big});
  named.push_back(
      {"dispatch_branchy_n200000", cms::branchy_program(200000), big});
  std::shuffle(named.begin(), named.end(), rng);
  std::uniform_real_distribution<double> value(0.5, 1.5);
  std::vector<Prog> out;
  for (cms::NamedProgram& np : named) {
    Prog p{np.name, std::move(np.program), np.mem_doubles,
           cms::MachineState(np.mem_doubles)};
    for (double& v : p.initial.mem) v = value(rng);
    out.push_back(std::move(p));
  }
  return out;
}

/// Memory only: the optimizer may leave different values in dead registers.
bool same_memory(const cms::MachineState& a, const cms::MachineState& b) {
  return a.mem.size() == b.mem.size() &&
         std::memcmp(a.mem.data(), b.mem.data(),
                     a.mem.size() * sizeof(double)) == 0;
}

bool same_state(const cms::MachineState& a, const cms::MachineState& b) {
  return std::memcmp(a.r, b.r, sizeof a.r) == 0 &&
         std::memcmp(a.f, b.f, sizeof a.f) == 0 && same_memory(a, b);
}

const Golden* golden(const std::string& name) {
  for (const Golden& g : kGolden) {
    if (name == g.name) return &g;
  }
  return nullptr;
}

class CmsPhase final : public Phase {
 public:
  explicit CmsPhase(Run& run) : run_(run) {
    std::mt19937_64 rng = run.stream(1);
    progs_ = make_programs(rng);
    cms::MorphingConfig c3 = cms::cms_43x();
    jit::attach_jit(c3);
    c3.optimizer = nullptr;  // warm tiers run the program as written
    c3.prover = nullptr;
    for (std::size_t i = 0; i < progs_.size(); ++i) {
      tier2_.push_back(std::make_unique<cms::MorphingEngine>(cms::cms_43x()));
      tier3_.push_back(std::make_unique<cms::MorphingEngine>(c3));
    }
    // Warm both tiers fully: cache hot, regions compiled and past their
    // first-entry differential gate.
    for (std::size_t i = 0; i < progs_.size(); ++i) {
      for (int k = 0; k < 2; ++k) {
        cms::MachineState a = progs_[i].initial, b = progs_[i].initial;
        (void)tier2_[i]->run(progs_[i].program, a);
        (void)tier3_[i]->run(progs_[i].program, b);
      }
    }
  }

  /// One round: the cold set, then the warm tier-2 and tier-3 sets.
  void step() override {
    cold_set();
    warm_set(tier2_, "cms:warm_t2", "cms_warm_t2_s", t2_stats_, t2_final_);
    warm_set(tier3_, "cms:warm_t3", "cms_warm_t3_s", t3_stats_, t3_final_);
    check_round();
  }
  [[nodiscard]] double progress() const override {
    return static_cast<double>(cold_sets_) / kMinRounds;
  }

  void finish() override;

 private:
  cms::MorphingConfig cold_config();
  void cold_set();
  void warm_set(std::vector<std::unique_ptr<cms::MorphingEngine>>& engines,
                const char* span, const char* metric,
                std::vector<cms::MorphingStats>& stats,
                std::vector<cms::MachineState>& finals);
  void check_round();

  Run& run_;
  std::vector<Prog> progs_;
  std::vector<std::unique_ptr<cms::MorphingEngine>> tier2_, tier3_;
  std::vector<cms::MorphingStats> cold_stats_, t2_stats_, t3_stats_;
  std::vector<cms::MachineState> cold_final_, t2_final_, t3_final_;
  std::vector<cms::Program> optimized_;
  int parent_ = -1;  ///< span the engine hooks nest under (traced run)
  double opt_s_ = 0.0, wcet_s_ = 0.0;
  std::uint64_t passes_changed_ = 0, passes_rolled_back_ = 0;
  int cold_sets_ = 0;
};

/// Cold engine: opt level 2 with the optimizer, prover, JIT and certified
/// budgets attached. The traced run wraps each hook in a span.
cms::MorphingConfig CmsPhase::cold_config() {
  cms::MorphingConfig cfg = cms::cms_43x();
  cfg.opt_level = 2;
  jit::attach_jit(cfg);
  jit::attach_certified_budgets(cfg);
  Tracer& tr = run_.tracer;
  if (!tr.on()) return cfg;
  cfg.optimizer = [this, &tr](const cms::Program& p, int level,
                              std::size_t mem) {
    Scoped s(tr, "opt::optimize", "opt", parent_);
    const double t0 = now_s();
    opt::OptOptions o;
    o.level = level;
    o.mem_doubles = mem;
    opt::OptResult r = opt::optimize(p, o);
    opt_s_ += now_s() - t0;
    for (const opt::PassDelta& d : r.deltas) {
      if (d.applied || d.rejected || d.cost_rolled_back) ++passes_changed_;
      if (d.rejected || d.cost_rolled_back) ++passes_rolled_back_;
    }
    optimized_.push_back(r.program);
    return std::move(r.program);
  };
  cfg.prover = [this, &tr, inner = cfg.prover](
                   const cms::Program& p, std::size_t b, std::size_t e,
                   std::size_t mem, std::string* why) {
    Scoped s(tr, "prove::engine_prover", "prove", parent_);
    return inner(p, b, e, mem, why);
  };
  cfg.jit_compiler = [this, &tr, inner = cfg.jit_compiler](
                         const cms::Program& p, std::size_t pc,
                         const cms::TranslationCache& cache, std::size_t mem,
                         bool* retry, std::string* why) {
    Scoped s(tr, "jit::make_region_compiler", "jit", parent_);
    return inner(p, pc, cache, mem, retry, why);
  };
  cfg.jit_budget = [this, &tr, inner = cfg.jit_budget](
                       const cms::Program& p, std::size_t mem,
                       std::size_t pc) {
    Scoped s(tr, "wcet::certify (certified budgets)", "wcet", parent_);
    const double t0 = now_s();
    const std::uint64_t b = inner(p, mem, pc);
    wcet_s_ += now_s() - t0;
    return b;
  };
  return cfg;
}

void CmsPhase::cold_set() {
  Tracer& tr = run_.tracer;
  cold_stats_.clear();
  cold_final_.clear();
  optimized_.clear();
  Scoped set(tr, "cms:cold", "unattributed");
  const double t0 = now_s();
  for (const Prog& p : progs_) {
    cms::MorphingEngine engine(cold_config());
    cms::MachineState st = p.initial;
    Scoped run(tr, "cms::MorphingEngine::run", "cms", set.id());
    parent_ = run.id();
    cold_stats_.push_back(engine.run(p.program, st));
    cold_final_.push_back(std::move(st));
  }
  run_.results.sample("cms_cold_s", "s", now_s() - t0);
  ++cold_sets_;
}

void CmsPhase::warm_set(
    std::vector<std::unique_ptr<cms::MorphingEngine>>& engines,
    const char* span, const char* metric,
    std::vector<cms::MorphingStats>& stats,
    std::vector<cms::MachineState>& finals) {
  Tracer& tr = run_.tracer;
  stats.assign(progs_.size(), {});
  finals.clear();
  Scoped set(tr, span, "unattributed");
  const double t0 = now_s();
  for (std::size_t i = 0; i < progs_.size(); ++i) {
    Scoped run(tr, "cms::MorphingEngine::run", "cms", set.id());
    cms::MachineState st = progs_[i].initial;
    for (int k = 0; k < kWarmReps; ++k) {
      if (k > 0) st = progs_[i].initial;
      stats[i] = engines[i]->run(progs_[i].program, st);
    }
    finals.push_back(std::move(st));
  }
  run_.results.sample(metric, "s", now_s() - t0);
}

void CmsPhase::check_round() {
  Results& r = run_.results;
  for (std::size_t i = 0; i < progs_.size(); ++i) {
    const std::string& name = progs_[i].name;
    r.check(same_state(t2_final_[i], t3_final_[i]) &&
                t2_stats_[i].total_cycles == t3_stats_[i].total_cycles &&
                t2_stats_[i].native_block_executions ==
                    t3_stats_[i].native_block_executions,
            name + ": tier-3 state and cycles equal tier-2");
    r.check(same_memory(cold_final_[i], t2_final_[i]),
            name + ": cold (opt level 2) memory equals tier-2");
    if (const Golden* g = golden(name)) {
      r.check(cold_stats_[i].total_cycles == g->cold_cycles &&
                  t2_stats_[i].total_cycles == g->warm_cycles,
              name + ": cycles equal the seed commit's");
    }
  }
}

void CmsPhase::finish() {
  Results& r = run_.results;
  double interp_s = 0.0;
  for (std::size_t i = 0; i < progs_.size(); ++i) {
    const Prog& p = progs_[i];
    cms::MorphingEngine engine;
    cms::MachineState st = p.initial;
    const double t0 = now_s();
    const std::uint64_t cycles = engine.interpret_only_cycles(p.program, st);
    interp_s += now_s() - t0;
    r.check(same_state(st, t2_final_[i]),
            p.name + ": interpret-only state equals tier-2");
    if (const Golden* g = golden(p.name)) {
      r.check(cycles == g->interp_cycles,
              p.name + ": interpret-only cycles equal the seed commit's");
    }
    std::printf("cms %-26s cold %llu warm %llu interp %llu cycles\n",
                p.name.c_str(),
                static_cast<unsigned long long>(cold_stats_[i].total_cycles),
                static_cast<unsigned long long>(t2_stats_[i].total_cycles),
                static_cast<unsigned long long>(cycles));
  }
  r.layer("cms.interpret_s", "s", interp_s);

  cms::MorphingStats t2{}, t3{};
  for (std::size_t i = 0; i < progs_.size(); ++i) {
    t2.native_block_executions += t2_stats_[i].native_block_executions;
    t2.total_cycles += t2_stats_[i].total_cycles;
    t3.jit_regions += t3_stats_[i].jit_regions;
    t3.jit_rollbacks += t3_stats_[i].jit_rollbacks;
    t3.jit_block_executions += t3_stats_[i].jit_block_executions;
    t3.native_block_executions += t3_stats_[i].native_block_executions;
  }
  for (const cms::MorphingStats& s : cold_stats_) {
    t3.jit_regions += s.jit_regions;
    t3.jit_rollbacks += s.jit_rollbacks;
  }
  // Translation work happens in the cold set; the warm engines hit always.
  std::uint64_t translations = 0, hits = 0, misses = 0;
  for (const cms::MorphingStats& s : cold_stats_) {
    translations += s.translations;
    hits += s.cache_hits;
    misses += s.cache_misses;
  }
  r.layer("cms.translations", "count", double(translations));
  r.layer("cms.cache_hit_ratio", "ratio", double(hits) / double(hits + misses));
  r.layer("cms.native_blocks", "count", double(t2.native_block_executions));
  r.layer("cms.total_cycles", "cycles", double(t2.total_cycles));
  r.layer("jit.regions", "count", double(t3.jit_regions));
  r.layer("jit.rollbacks", "count", double(t3.jit_rollbacks));
  r.layer("jit.useful_ratio", "ratio",
          double(t3.jit_block_executions) /
              double(t3.native_block_executions));

  if (!run_.tracer.on()) return;
  const double sets = std::max(1, cold_sets_);
  r.layer("opt.pipeline_s", "s", opt_s_ / sets);
  r.layer("opt.rollback_ratio", "ratio",
          passes_changed_ == 0
              ? 0.0
              : double(passes_rolled_back_) / double(passes_changed_));
  r.layer("wcet.certify_s", "s", wcet_s_ / sets);
  // prove_program runs inside the JIT hook's per-program analysis; time it
  // on its own over the programs the optimizer produced.
  double prove_s = 0.0;
  for (std::size_t i = 0; i < optimized_.size(); ++i) {
    const double t0 = now_s();
    const prove::ProveResult pr =
        prove::prove_program(optimized_[i], progs_[i].mem_doubles);
    prove_s += now_s() - t0;
    r.check(pr.valid, progs_[i].name + ": optimized program proves valid");
  }
  r.layer("prove.program_s", "s", prove_s);
}

}  // namespace

std::unique_ptr<Phase> make_cms(Run& run) {
  return std::make_unique<CmsPhase>(run);
}

}  // namespace perfbench
