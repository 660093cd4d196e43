#include "serve/sim.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "arch/cost_model.hpp"
#include "arch/registry.hpp"
#include "cms/engine.hpp"
#include "cms/programs.hpp"
#include "common/error.hpp"
#include "core/presets.hpp"
#include "core/tco.hpp"
#include "opt/opt.hpp"
#include "treecode/parallel.hpp"
#include "treecode/perf.hpp"
#include "wcet/wcet.hpp"

namespace bladed::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  h ^= 0x7C;  // field separator so {"a","bc"} != {"ab","c"}
  h *= kFnvPrime;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

/// Field extraction helpers: each checks type + range and reports a precise
/// 400 reason.
struct FieldReader {
  std::string* error;
  bool ok = true;

  bool want_int(const Json& v, const char* name, std::int64_t lo,
                std::int64_t hi, std::int64_t* out) {
    if (!ok) return false;
    if (!v.is_number() || v.as_number() != std::floor(v.as_number())) {
      *error = std::string("field '") + name + "' must be an integer";
      ok = false;
      return false;
    }
    const double d = v.as_number();
    if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
      *error = std::string("field '") + name + "' out of range [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]";
      ok = false;
      return false;
    }
    *out = static_cast<std::int64_t>(d);
    return true;
  }

  bool want_number(const Json& v, const char* name, double lo, double hi,
                   double* out) {
    if (!ok) return false;
    if (!v.is_number()) {
      *error = std::string("field '") + name + "' must be a number";
      ok = false;
      return false;
    }
    if (v.as_number() < lo || v.as_number() > hi) {
      *error = std::string("field '") + name + "' out of range";
      ok = false;
      return false;
    }
    *out = v.as_number();
    return true;
  }

  bool want_bool(const Json& v, const char* name, bool* out) {
    if (!ok) return false;
    if (!v.is_bool()) {
      *error = std::string("field '") + name + "' must be a boolean";
      ok = false;
      return false;
    }
    *out = v.as_bool();
    return true;
  }

  bool want_string(const Json& v, const char* name, std::string* out) {
    if (!ok) return false;
    if (!v.is_string()) {
      *error = std::string("field '") + name + "' must be a string";
      ok = false;
      return false;
    }
    *out = v.as_string();
    return true;
  }
};

[[nodiscard]] std::string known_archs() {
  std::string names;
  for (const arch::ProcessorModel& m : arch::all_processors()) {
    if (!names.empty()) names += ", ";
    names += m.short_name;
  }
  return names;
}

[[nodiscard]] Json tco_json(const core::Tco& t) {
  Json out = Json::object();
  out.set("hardware", t.hardware.value())
      .set("software", t.software.value())
      .set("sysadmin", t.sysadmin.value())
      .set("power_cooling", t.power_cooling.value())
      .set("space", t.space.value())
      .set("downtime", t.downtime.value())
      .set("acquisition", t.acquisition().value())
      .set("operating", t.operating().value())
      .set("total", t.total().value());
  return out;
}

/// Preset cluster whose registered CPU is `arch` (the 24-node chassis the
/// paper prices), or nullopt.
[[nodiscard]] std::optional<core::ClusterSpec> preset_for_arch(
    const std::string& arch_name) {
  const arch::ProcessorModel* cpu = nullptr;
  try {
    cpu = &arch::by_short_name(arch_name);
  } catch (const PreconditionError&) {
    return std::nullopt;
  }
  for (const core::ClusterSpec& s : core::table5_clusters()) {
    if (s.cpu == cpu) return s;
  }
  if (core::metablade2().cpu == cpu) return core::metablade2();
  if (core::avalon().cpu == cpu) return core::avalon();
  if (core::green_destiny().cpu == cpu) return core::green_destiny();
  if (core::loki().cpu == cpu) return core::loki();
  return std::nullopt;
}

/// Corpus program for a validated "cms" request.
[[nodiscard]] const cms::NamedProgram* corpus_program(
    const std::string& name) {
  static const std::vector<cms::NamedProgram> corpus = cms::prove_corpus();
  for (const cms::NamedProgram& np : corpus) {
    if (np.name == name) return &np;
  }
  return nullptr;
}

/// The program the engine actually executes for a cms request (the
/// optimizer rewrite applied), plus the engine config — shared by the
/// certifier and the runner so the certificate prices exactly what runs.
[[nodiscard]] cms::MorphingConfig cms_engine_config(const SimRequest& req) {
  cms::MorphingConfig cfg = cms::cms_42x();
  cfg.opt_level = req.opt_level;
  cfg.optimizer = opt::engine_optimizer();
  return cfg;
}

[[nodiscard]] cms::Program cms_executed_program(const SimRequest& req,
                                                const cms::NamedProgram& np) {
  if (req.opt_level <= 0) return np.program;
  opt::OptOptions opts;
  opts.level = req.opt_level;
  opts.mem_doubles = np.mem_doubles;
  return opt::optimize(np.program, opts).program;
}

}  // namespace

std::uint64_t SimRequest::config_hash() const {
  std::uint64_t h = kFnvOffset;
  fnv(h, workload);
  fnv(h, arch);
  if (workload == "cms") {
    // Canonical cms key: the program, the pipeline level and the run count
    // are everything that shapes the (deterministic) result.
    fnv(h, program);
    fnv(h, static_cast<std::uint64_t>(opt_level));
    fnv(h, static_cast<std::uint64_t>(steps));
    return h;
  }
  fnv(h, static_cast<std::uint64_t>(ranks));
  fnv(h, static_cast<std::uint64_t>(particles));
  fnv(h, static_cast<std::uint64_t>(steps));
  fnv(h, seed);
  fnv(h, static_cast<std::uint64_t>(ic_kind));
  // host_threads deliberately excluded: results are bit-identical at every
  // compute width, so it must not split the cache key. `years` only shapes
  // the tco workload.
  if (workload == "tco") {
    fnv(h, static_cast<std::uint64_t>(years * 1e6));
  }
  return h;
}

std::string SimRequest::config_hash_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(config_hash()));
  return buf;
}

std::optional<SimRequest> parse_sim_request(const Json& body,
                                            std::string* error) {
  if (!body.is_object()) {
    *error = "request body must be a JSON object";
    return std::nullopt;
  }
  SimRequest req;
  FieldReader r{error};
  for (const auto& [key, v] : body.as_object()) {
    std::int64_t i = 0;
    if (key == "workload") {
      r.want_string(v, "workload", &req.workload);
    } else if (key == "arch") {
      r.want_string(v, "arch", &req.arch);
    } else if (key == "ranks") {
      if (r.want_int(v, "ranks", 1, 64, &i)) req.ranks = static_cast<int>(i);
    } else if (key == "particles") {
      if (r.want_int(v, "particles", 64, 1000000, &i)) req.particles = i;
    } else if (key == "steps") {
      if (r.want_int(v, "steps", 1, 200, &i)) req.steps = static_cast<int>(i);
    } else if (key == "seed") {
      if (r.want_int(v, "seed", 0, 1LL << 53, &i)) {
        req.seed = static_cast<std::uint64_t>(i);
      }
    } else if (key == "ic") {
      if (r.want_int(v, "ic", 0, 2, &i)) req.ic_kind = static_cast<int>(i);
    } else if (key == "host_threads") {
      if (r.want_int(v, "host_threads", 0, 64, &i)) {
        req.host_threads = static_cast<int>(i);
      }
    } else if (key == "years") {
      r.want_number(v, "years", 0.1, 50.0, &req.years);
    } else if (key == "deadline_ms") {
      r.want_number(v, "deadline_ms", 0.0, 3600000.0, &req.deadline_ms);
    } else if (key == "allow_degraded") {
      r.want_bool(v, "allow_degraded", &req.allow_degraded);
    } else if (key == "force") {
      r.want_bool(v, "force", &req.force);
    } else if (key == "tco") {
      r.want_bool(v, "tco", &req.want_tco);
    } else if (key == "program") {
      r.want_string(v, "program", &req.program);
    } else if (key == "opt_level") {
      if (r.want_int(v, "opt_level", 0, 2, &i)) {
        req.opt_level = static_cast<int>(i);
      }
    } else {
      *error = "unknown field '" + key + "'";
      return std::nullopt;
    }
    if (!r.ok) return std::nullopt;
  }
  if (req.workload != "treecode" && req.workload != "tco" &&
      req.workload != "cms") {
    *error = "unknown workload '" + req.workload +
             "' (supported: treecode, tco, cms)";
    return std::nullopt;
  }
  if (req.workload == "cms") {
    if (req.program.empty()) {
      *error = "cms workload requires field 'program'";
      return std::nullopt;
    }
    if (corpus_program(req.program) == nullptr) {
      std::string names;
      for (const cms::NamedProgram& np : cms::prove_corpus()) {
        if (!names.empty()) names += ", ";
        names += np.name;
      }
      *error = "unknown cms program '" + req.program + "' (known: " + names +
               ")";
      return std::nullopt;
    }
  } else if (!req.program.empty()) {
    *error = "field 'program' is only valid for the cms workload";
    return std::nullopt;
  }
  try {
    (void)arch::by_short_name(req.arch);
  } catch (const PreconditionError&) {
    *error = "unknown arch '" + req.arch + "' (known: " + known_archs() + ")";
    return std::nullopt;
  }
  if (req.workload == "tco" && !preset_for_arch(req.arch).has_value()) {
    *error = "no priced cluster preset uses arch '" + req.arch + "'";
    return std::nullopt;
  }
  return req;
}

namespace {

/// The cms workload: `steps` independent fresh-engine runs of the corpus
/// program, each exactly the fresh-start contract the wcet certificate is
/// sound for (the engine is reset between runs — no cross-run cache warmth
/// the static bound would have to model). Cycles are priced into simulated
/// seconds at the request arch's clock.
[[nodiscard]] SimOutcome run_cms(const SimRequest& req,
                                 const std::atomic<bool>* cancel) {
  const cms::NamedProgram* np = corpus_program(req.program);
  BLADED_REQUIRE_MSG(np != nullptr, "cms workload validated without program");
  const cms::Program prog = cms_executed_program(req, *np);
  cms::MorphingConfig cfg = cms_engine_config(req);
  // The rewrite already happened above (the certificate prices its output);
  // running it again inside the engine would double the pipeline work.
  cfg.opt_level = 0;
  cfg.optimizer = nullptr;
  cms::MorphingEngine engine(cfg);
  cms::MorphingStats total;
  for (int step = 0; step < req.steps; ++step) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw CancelledError("cms run cancelled");
    }
    engine.reset();
    cms::MachineState st(np->mem_doubles);
    const cms::MorphingStats s = engine.run(prog, st);
    total.total_cycles += s.total_cycles;
    total.interpret_cycles += s.interpret_cycles;
    total.translate_cycles += s.translate_cycles;
    total.native_cycles += s.native_cycles;
    total.translations += s.translations;
    total.interpreted_instructions += s.interpreted_instructions;
    total.native_block_executions += s.native_block_executions;
  }
  const arch::ProcessorModel& cpu = arch::by_short_name(req.arch);
  const CmsCertification cert = certify_cms(req);

  SimOutcome out;
  out.virtual_seconds =
      static_cast<double>(total.total_cycles) / cpu.clock_hz();
  out.result = Json::object();
  out.result.set("program", req.program)
      .set("opt_level", static_cast<double>(req.opt_level))
      .set("steps", static_cast<double>(req.steps))
      .set("total_cycles", total.total_cycles)
      .set("interpret_cycles", total.interpret_cycles)
      .set("translate_cycles", total.translate_cycles)
      .set("native_cycles", total.native_cycles)
      .set("translations", total.translations)
      .set("elapsed_seconds", out.virtual_seconds);
  if (cert.bounded) {
    out.result.set("certified_upper_cycles", cert.upper_cycles)
        .set("certified_lower_cycles", cert.lower_cycles);
  }
  return out;
}

}  // namespace

CmsCertification certify_cms(const SimRequest& req) {
  CmsCertification cert;
  if (req.workload != "cms") return cert;
  const cms::NamedProgram* np = corpus_program(req.program);
  if (np == nullptr) return cert;
  const cms::Program prog = cms_executed_program(req, *np);
  const cms::MorphingConfig cfg = cms_engine_config(req);
  const wcet::Certificate c =
      wcet::certify(prog, np->mem_doubles, wcet::CostParams::from(cfg));
  if (!c.valid || !c.bounded) return cert;
  cert.bounded = true;
  const auto steps = static_cast<std::uint64_t>(req.steps);
  const std::uint64_t sat = std::numeric_limits<std::uint64_t>::max();
  cert.upper_cycles = c.tier2.upper != 0 && steps > sat / c.tier2.upper
                          ? sat
                          : steps * c.tier2.upper;
  cert.lower_cycles = steps * c.tier2.lower;
  cert.upper_seconds = static_cast<double>(cert.upper_cycles) /
                       arch::by_short_name(req.arch).clock_hz();
  return cert;
}

SimOutcome run_simulation(const SimRequest& req,
                          const std::atomic<bool>* cancel) {
  if (req.workload == "cms") return run_cms(req, cancel);
  treecode::ParallelConfig cfg;
  cfg.ranks = req.ranks;
  cfg.particles = static_cast<std::size_t>(req.particles);
  cfg.steps = req.steps;
  cfg.seed = req.seed;
  cfg.ic_kind = req.ic_kind;
  cfg.cpu = &arch::by_short_name(req.arch);
  cfg.host_threads = req.host_threads;
  cfg.cancel = cancel;
  const treecode::ParallelResult r = treecode::run_parallel_nbody(cfg);

  SimOutcome out;
  out.virtual_seconds = r.elapsed_seconds;
  Json& res = out.result;
  res = Json::object();
  res.set("elapsed_seconds", r.elapsed_seconds)
      .set("compute_seconds", r.compute_seconds)
      .set("sustained_gflops", r.sustained_gflops)
      .set("mflops_per_proc", r.mflops_per_proc)
      .set("total_flops", static_cast<double>(r.total_flops))
      .set("interactions", static_cast<double>(r.interactions))
      .set("network_bytes", static_cast<double>(r.bytes))
      .set("network_messages", static_cast<double>(r.messages))
      .set("kinetic", r.kinetic)
      .set("potential", r.potential);
  if (req.want_tco) {
    const Json tco = tco_for_arch(req.arch, req.years);
    if (!tco.is_null()) res.set("tco", tco);
  }
  return out;
}

SimOutcome run_inline(const SimRequest& req) {
  BLADED_REQUIRE_MSG(req.inline_workload(),
                     "run_inline on non-inline workload " + req.workload);
  const std::optional<core::ClusterSpec> spec = preset_for_arch(req.arch);
  BLADED_REQUIRE_MSG(spec.has_value(),
                     "tco workload validated without a preset");
  core::CostContext ctx;
  ctx.years = req.years;
  SimOutcome out;
  out.result = Json::object();
  out.result.set("cluster", spec->name)
      .set("nodes", spec->nodes)
      .set("years", req.years)
      .set("total_watts", spec->total_power().value())
      .set("tco", tco_json(core::compute_tco(*spec, ctx)));
  return out;
}

SimOutcome approximate_simulation(const SimRequest& req) {
  if (req.workload == "cms") {
    // The degraded cms answer IS the static certificate: no engine run, the
    // certified bounds bracket what a run would have reported.
    const CmsCertification cert = certify_cms(req);
    SimOutcome out;
    out.result = Json::object();
    out.result.set("program", req.program)
        .set("opt_level", static_cast<double>(req.opt_level))
        .set("steps", static_cast<double>(req.steps))
        .set("model", "wcet-certificate");
    if (cert.bounded) {
      out.result.set("elapsed_seconds", cert.upper_seconds)
          .set("certified_upper_cycles", cert.upper_cycles)
          .set("certified_lower_cycles", cert.lower_cycles);
    }
    return out;
  }
  // Estimated interaction count for a Barnes-Hut pass: ~c * log2(N) cell
  // interactions per particle per step (c from the instrumented reference
  // runs; accuracy is secondary — this is the degraded answer).
  const arch::ProcessorModel& cpu = arch::by_short_name(req.arch);
  const double n = static_cast<double>(req.particles);
  const double interactions =
      28.0 * n * std::log2(std::max(2.0, n)) * req.steps;
  const double flops = 38.0 * interactions;
  const double mflops_proc = treecode::single_proc_treecode_mflops(cpu);
  // Parallel efficiency falls with rank count (LET exchange + imbalance);
  // 0.85 at 1 rank sliding toward ~0.6 at 24 matches the Table 2 scaling.
  const double eff =
      std::max(0.5, 0.85 - 0.01 * static_cast<double>(req.ranks));
  const double rate = mflops_proc * 1e6 * req.ranks * eff;
  const double elapsed = flops / std::max(1.0, rate);

  SimOutcome out;
  out.virtual_seconds = 0.0;  // no simulated run happened
  out.result = Json::object();
  out.result.set("elapsed_seconds", elapsed)
      .set("sustained_gflops", flops / std::max(1e-12, elapsed) / 1e9)
      .set("mflops_per_proc", mflops_proc * eff)
      .set("total_flops", flops)
      .set("interactions", interactions)
      .set("model", "analytic-estimate");
  if (req.want_tco) {
    const Json tco = tco_for_arch(req.arch, req.years);
    if (!tco.is_null()) out.result.set("tco", tco);
  }
  return out;
}

Json tco_for_arch(const std::string& arch, double years) {
  const std::optional<core::ClusterSpec> spec = preset_for_arch(arch);
  if (!spec.has_value()) return Json{};
  core::CostContext ctx;
  ctx.years = years;
  Json out = tco_json(core::compute_tco(*spec, ctx));
  out.set("cluster", spec->name).set("years", years);
  return out;
}

}  // namespace bladed::serve
