/// bladed-lint: static verification driver for the CMS layer.
///
/// Default mode loads the built-in program corpus (cms::lint_corpus) and
/// runs every diagnostic pass over it — program checks (CFG, dataflow,
/// interval analysis), translation verification of every region, and the
/// interpreter-vs-engine differential check. Any finding (warning or error)
/// fails the run: the shipped corpus must be spotless.
///
/// `--selftest` runs the checker against crafted *bad* programs and
/// translations and verifies each one is rejected with the expected
/// diagnostic code at the expected instruction index — the checker checking
/// itself.
///
/// `--opt` runs the verified optimizer pipeline (opt/opt.hpp) over the
/// optimizer corpus (cms::opt_corpus) and reports per-pass instruction
/// deltas plus engine cycle counts at opt_level 0 vs 2 — final machine
/// states must be bit-identical. A rejected pass (a transform whose proof
/// obligation failed) fails the run.
///
/// `--prove` runs the whole-program alias & safety analysis (prove/prove.hpp)
/// over the analyzer corpus (cms::prove_corpus): every memory access must
/// carry an in-bounds proof, every region a license, and the engine's
/// region-prover gate must accept every hot block. `--prove --selftest`
/// feeds the analyzer a seeded corpus of known-unsafe programs and verifies
/// each one is *refuted* (the specific bad access left unproven) — the
/// prover proving it can say no. `--prove --json` additionally prints the
/// bladed-prove-v1 report per program.
///
/// `--jit` runs the tier-3 dry-run lowering planner (jit/jit.hpp) over the
/// analyzer corpus (cms::prove_corpus): every fully-licensed region must
/// lower to a directly-threaded plan with at least one bounds-check-elided
/// memory op, without executing anything. A licensed region the lowerer
/// refuses (other than for a cold cache, which the dry run warms
/// hypothetically) fails the run.
///
/// `--mem-doubles N` overrides each corpus entry's machine memory size.
///
/// Exit codes (stable; CI gates on them): 0 clean, 1 at least one
/// error-severity finding (or a failed optimizer/analyzer proof), 2 usage
/// error, 3 warning-severity findings only, 4 unproven memory accesses in
/// `--prove` mode. All modes are wired into ctest.

#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "check/differential.hpp"
#include "cms/programs.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "jit/jit.hpp"
#include "opt/opt.hpp"
#include "cli.hpp"
#include "prove/prove.hpp"
#include "wcet/wcet.hpp"

namespace {

using namespace bladed;
using cms::Instr;
using cms::Op;

constexpr int kExitClean = 0;
constexpr int kExitErrors = 1;
constexpr int kExitWarnings = 3;
constexpr int kExitUnproven = 4;

Instr make(Op op, int a = 0, int b = 0, int c = 0, std::int64_t imm = 0) {
  Instr in;
  in.op = op;
  in.a = a;
  in.b = b;
  in.c = c;
  in.imm_i = imm;
  return in;
}

int run_corpus(bool verbose, std::size_t mem_override) {
  std::size_t findings = 0;
  std::size_t errors = 0;
  for (const cms::NamedProgram& entry : cms::lint_corpus()) {
    const std::size_t mem =
        mem_override != 0 ? mem_override : entry.mem_doubles;
    check::Report report = check::check_program(entry.program, mem);
    if (report.ok()) {
      report.merge(check::check_translations(entry.program));
      check::DifferentialOptions opt;
      opt.mem_doubles = mem;
      report.merge(check::differential_check(entry.program, opt));
    }
    if (!report.clean()) {
      findings += report.diagnostics().size();
      errors += report.error_count();
      std::cout << entry.name << ": " << report.error_count() << " error(s), "
                << report.warning_count() << " warning(s)\n"
                << report.to_string();
    } else if (verbose) {
      std::cout << entry.name << ": clean (" << entry.program.size()
                << " instructions)\n";
    }
  }
  if (findings != 0) {
    std::cout << "bladed-lint: " << findings << " finding(s), " << errors
              << " error-severity\n";
    return errors != 0 ? kExitErrors : kExitWarnings;
  }
  std::cout << "bladed-lint: corpus clean\n";
  return kExitClean;
}

bool same_bits_d(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// `--opt`: optimize the corpus, print per-pass deltas and the engine cycle
/// counts at opt_level 0 vs 2; final machine states must match bitwise.
int run_opt(bool verbose, std::size_t mem_override) {
  bool failed = false;
  for (const cms::NamedProgram& entry : cms::opt_corpus()) {
    const std::size_t mem =
        mem_override != 0 ? mem_override : entry.mem_doubles;
    opt::OptOptions opts;
    opts.level = 2;
    opts.mem_doubles = mem;
    const opt::OptResult res = opt::optimize(entry.program, opts);

    // Identical memory images; the level-2 engine consumes the optimizer
    // through the MorphingConfig hook, so the run exercises the same path
    // the ablation bench and users take.
    cms::MachineState s0(mem);
    Rng rng(0xb1ade);
    for (double& cell : s0.mem) cell = rng.uniform(-2.0, 2.0);
    cms::MachineState s1 = s0;
    cms::MorphingEngine e0((cms::MorphingConfig()));
    cms::MorphingConfig cfg1;
    cfg1.opt_level = 2;
    cfg1.optimizer = opt::engine_optimizer();
    cms::MorphingEngine e1(cfg1);
    const cms::MorphingStats st0 = e0.run(entry.program, s0);
    const cms::MorphingStats st1 = e1.run(entry.program, s1);

    bool identical = true;
    for (int r = 0; r < 16; ++r) identical &= s0.r[r] == s1.r[r];
    for (int f = 0; f < 8; ++f) identical &= same_bits_d(s0.f[f], s1.f[f]);
    for (std::size_t i = 0; identical && i < s0.mem.size(); ++i) {
      identical = same_bits_d(s0.mem[i], s1.mem[i]);
    }

    const double pct =
        st0.total_cycles == 0
            ? 0.0
            : 100.0 *
                  (static_cast<double>(st1.total_cycles) -
                   static_cast<double>(st0.total_cycles)) /
                  static_cast<double>(st0.total_cycles);
    std::cout << entry.name << ": instrs " << entry.program.size() << " -> "
              << res.program.size() << ", cycles " << st0.total_cycles
              << " -> " << st1.total_cycles << " ("
              << (pct >= 0 ? "+" : "") << pct << "%), "
              << (identical ? "results identical" : "RESULTS DIVERGE")
              << "\n";
    for (const opt::PassDelta& d : res.deltas) {
      if (d.rejected) {
        std::cout << "  " << d.pass << ": REJECTED — " << d.note << "\n";
        failed = true;
      } else if (d.cost_rolled_back) {
        // Priced out by the wcet gate, not a proof failure: the certified
        // bound would have grown, so the cheaper program was kept.
        std::cout << "  " << d.pass << ": rolled back (cost) — " << d.note
                  << "\n";
      } else if (d.applied) {
        std::cout << "  " << d.pass << ": applied, " << d.instrs_before
                  << " -> " << d.instrs_after << "\n";
      } else if (verbose) {
        std::cout << "  " << d.pass << ": no change\n";
      }
    }
    if (!identical) failed = true;
  }
  std::cout << (failed ? "bladed-lint --opt: FAILED\n"
                       : "bladed-lint --opt: all proofs held\n");
  return failed ? kExitErrors : kExitClean;
}

/// `--prove`: analyze the corpus; every access must be proven in bounds,
/// every region licensed, and the engine's region-prover gate must accept
/// every block it translates.
int run_prove(bool verbose, std::size_t mem_override, bool json) {
  bool errors = false;
  std::size_t unproven = 0;
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    const std::size_t mem =
        mem_override != 0 ? mem_override : entry.mem_doubles;
    const prove::ProveResult res = prove::prove_program(entry.program, mem);
    if (!res.valid) {
      std::cout << entry.name << ": INVALID — " << res.error << "\n";
      errors = true;
      continue;
    }
    std::size_t licensed = res.licensed_region_count;
    std::cout << entry.name << ": " << res.proven_count << "/"
              << res.access_count << " accesses proven, " << licensed << "/"
              << res.regions.size() << " regions licensed, hot coverage "
              << 100.0 * res.hot_coverage << "%\n";
    std::size_t entry_unproven = 0;
    for (const prove::AccessProof& a : res.accesses) {
      if (a.kind == prove::ProofKind::kUnproven) {
        ++entry_unproven;
        std::cout << "  UNPROVEN " << (a.is_store ? "store" : "load")
                  << " @" << a.pc << ": " << a.detail << "\n";
      } else if (verbose) {
        std::cout << "  proven " << (a.is_store ? "store" : "load") << " @"
                  << a.pc << " [" << to_string(a.kind) << "]: " << a.detail
                  << "\n";
      }
    }
    if (verbose) {
      for (const prove::RegionLicense& r : res.regions) {
        std::cout << "  region @" << r.entry_pc << ": " << r.instr_count
                  << " instrs, " << r.access_count << " accesses, "
                  << (r.licensed ? "licensed" : "UNLICENSED")
                  << (r.is_loop ? ", loop" : "")
                  << (r.max_trips > 0
                          ? " (<= " + std::to_string(r.max_trips) + " trips)"
                          : "")
                  << ", alias pairs no/must/may " << r.no_alias_pairs << "/"
                  << r.must_alias_pairs << "/" << r.may_alias_pairs << "\n";
      }
    }
    if (json) std::cout << prove::to_json(res, entry.name) << "\n";
    unproven += entry_unproven;

    // The engine gate: a debug-mode run with the prover installed must
    // license every translated block end to end. Only meaningful for fully
    // proven entries — with unproven accesses the gate refusing (or the
    // interpreter trapping) is the expected outcome, and flagging it as an
    // error here would mask the distinct unproven exit code.
    if (entry_unproven != 0) continue;
    try {
      cms::MorphingConfig cfg;
      cfg.verify_translations = true;
      cfg.prover = prove::engine_prover();
      cms::MorphingEngine engine(cfg);
      cms::MachineState st(mem);
      Rng rng(0xb1ade);
      for (double& cell : st.mem) cell = rng.uniform(-2.0, 2.0);
      (void)engine.run(entry.program, st);
    } catch (const std::exception& e) {
      std::cout << "  ENGINE GATE REFUSED: " << e.what() << "\n";
      errors = true;
    }
  }
  if (errors) {
    std::cout << "bladed-lint --prove: FAILED\n";
    return kExitErrors;
  }
  if (unproven != 0) {
    std::cout << "bladed-lint --prove: " << unproven
              << " unproven access(es)\n";
    return kExitUnproven;
  }
  std::cout << "bladed-lint --prove: corpus fully proven\n";
  return kExitClean;
}

/// `--jit`: dry-run the tier-3 lowering planner over the analyzer corpus.
/// Every licensed region of a fully-proven program must compile; a refusal
/// (or a plan with no elided bounds checks on a memory-touching region)
/// means the tier would silently stay on tier-2 for code the prover
/// licensed — exactly the regression this mode exists to catch.
int run_jit(bool verbose, std::size_t mem_override) {
  bool failed = false;
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    const std::size_t mem =
        mem_override != 0 ? mem_override : entry.mem_doubles;
    const jit::LowerReport report = jit::lower_dry_run(entry.program, mem);
    if (!report.valid) {
      std::cout << entry.name << ": NOT LOWERABLE — " << report.error << "\n";
      failed = true;
      continue;
    }
    std::cout << entry.name << ": " << report.compiled_regions << "/"
              << report.plans.size() << " licensed regions lowered, "
              << report.total_raw_mem_ops
              << " bounds-check-elided memory op(s)\n";
    for (const jit::RegionPlan& p : report.plans) {
      if (!p.compiled) {
        std::cout << "  REFUSED @" << p.entry_pc << ": " << p.refusal << "\n";
        failed = true;
      }
    }
    if (verbose) std::cout << jit::to_string(report);
  }
  std::cout << (failed ? "bladed-lint --jit: FAILED\n"
                       : "bladed-lint --jit: all licensed regions lower\n");
  return failed ? kExitErrors : kExitClean;
}

/// `--wcet`: certify the analyzer corpus (wcet/wcet.hpp). Every program
/// must come back bounded — the corpus is the set of programs the whole
/// verified stack licenses end to end, so a missing cycle bound is a
/// regression in either the trip-count prover or the certifier. `--json`
/// prints the bladed-wcet-v1 envelope; unbounded programs reuse exit code 4
/// (prove's "no license, no number").
int run_wcet(bool verbose, std::size_t mem_override, bool json) {
  bool errors = false;
  std::size_t unbounded = 0;
  Json programs = Json::array();
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    const std::size_t mem =
        mem_override != 0 ? mem_override : entry.mem_doubles;
    const wcet::Certificate cert = wcet::certify(entry.program, mem);
    if (!cert.valid) {
      std::cout << entry.name << ": INVALID — " << cert.error << "\n";
      errors = true;
      continue;
    }
    if (!json) std::cout << entry.name << ": " << cert.to_string() << "\n";
    if (!cert.bounded) unbounded += cert.unbounded.size();
    if (verbose && !json) {
      for (const wcet::EntryCost& e : cert.entries) {
        std::cout << "  entry @" << e.entry_pc << ": <= " << e.max_dispatches
                  << " dispatch(es), interp " << e.interp_cycles
                  << ", translate " << e.translate_cycles << ", native "
                  << e.native_cycles << ", " << e.molecules
                  << " molecule(s)\n";
      }
    }
    if (json) {
      Json row = Json::object();
      row.set("name", entry.name).set("certificate", cert.to_json());
      programs.push(std::move(row));
    }
  }
  if (json) {
    // JSON mode keeps stdout a single parseable envelope; the verdict is
    // the exit code (and the envelope's per-program bounded flags).
    Json doc = Json::object();
    doc.set("schema", "bladed-wcet-v1").set("programs", std::move(programs));
    std::cout << doc.dump() << "\n";
    if (errors) return kExitErrors;
    return unbounded != 0 ? kExitUnproven : kExitClean;
  }
  if (errors) {
    std::cout << "bladed-lint --wcet: FAILED\n";
    return kExitErrors;
  }
  if (unbounded != 0) {
    std::cout << "bladed-lint --wcet: " << unbounded
              << " unbounded site(s)\n";
    return kExitUnproven;
  }
  std::cout << "bladed-lint --wcet: corpus fully bounded\n";
  return kExitClean;
}

/// One wcet-selftest case: a program with an unlicensable cycle the
/// certifier must refuse at the expected header pc.
struct UnboundedCase {
  std::string name;
  cms::Program program;
  std::size_t header_pc;
};

/// `--wcet --selftest`: the corpus must be fully bounded with ordered,
/// internally consistent intervals, AND every seeded unlicensable loop must
/// get an unbounded verdict anchored at its header — the certifier proving
/// it can say no.
int run_wcet_selftest() {
  int failures = 0;

  // Side A: corpus programs are bounded and the intervals are sane.
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    const wcet::Certificate cert =
        wcet::certify(entry.program, entry.mem_doubles);
    const bool ok = cert.valid && cert.bounded &&
                    cert.interpret.lower <= cert.interpret.upper &&
                    cert.tier2.lower <= cert.tier2.upper &&
                    cert.tier2.lower <= cert.interpret.lower &&
                    cert.tier3.lower == cert.tier2.lower &&
                    cert.tier3.upper == cert.tier2.upper &&
                    !cert.entries.empty();
    if (ok) {
      std::cout << "PASS bounded " << entry.name << " (tier2 <= "
                << cert.tier2.upper << " cycles)\n";
    } else {
      ++failures;
      std::cout << "FAIL bounded " << entry.name << ": " << cert.to_string()
                << "\n";
    }
  }

  // Side B: seeded programs whose cycles carry no trip-count license.
  std::vector<UnboundedCase> cases;
  {  // Latch is kBne: prove/bounds only licenses kBlt latches.
    cases.push_back({"bne-latch",
                     {make(Op::kMovi, 1, 0, 0, 0),
                      make(Op::kMovi, 2, 0, 0, 16),
                      make(Op::kAddi, 1, 1, 0, 1),
                      make(Op::kBne, 1, 2, 0, 2), make(Op::kHalt)},
                     2});
  }
  {  // Self-loop with no induction variable at all.
    cases.push_back({"infinite-jmp",
                     {make(Op::kMovi, 1, 0, 0, 0),
                      make(Op::kJmp, 0, 0, 0, 1), make(Op::kHalt)},
                     1});
  }
  {  // Guard IV stepped by a register add, not the canonical addi form.
    cases.push_back({"register-step",
                     {make(Op::kMovi, 1, 0, 0, 1),
                      make(Op::kMovi, 2, 0, 0, 64),
                      make(Op::kMovi, 3, 0, 0, 1),
                      make(Op::kAdd, 1, 1, 3),
                      make(Op::kBlt, 1, 2, 0, 3), make(Op::kHalt)},
                     3});
  }
  {  // Licensed outer loop around an unlicensable inner latch: the verdict
     // must anchor at the *inner* header.
    cases.push_back({"nested-inner-bne",
                     {make(Op::kMovi, 1, 0, 0, 0),
                      make(Op::kMovi, 2, 0, 0, 4),
                      make(Op::kMovi, 3, 0, 0, 8),
                      make(Op::kMovi, 4, 0, 0, 0),
                      make(Op::kAddi, 4, 4, 0, 1),
                      make(Op::kBne, 4, 3, 0, 4),
                      make(Op::kAddi, 1, 1, 0, 1),
                      make(Op::kBlt, 1, 2, 0, 3), make(Op::kHalt)},
                     4});
  }

  for (const UnboundedCase& c : cases) {
    const wcet::Certificate cert = wcet::certify(c.program, 4096);
    bool hit = false;
    for (const wcet::UnboundedSite& s : cert.unbounded) {
      if (s.pc == c.header_pc) hit = true;
    }
    if (cert.valid && !cert.bounded && hit) {
      std::cout << "PASS unbounded " << c.name << " (@" << c.header_pc
                << ")\n";
    } else {
      ++failures;
      std::cout << "FAIL unbounded " << c.name << ": expected verdict @"
                << c.header_pc << ", got " << cert.to_string() << "\n";
    }
  }

  std::cout << "bladed-lint --wcet --selftest: "
            << (failures == 0 ? "all programs classified correctly\n"
                              : std::to_string(failures) + " failure(s)\n");
  return failures == 0 ? kExitClean : kExitErrors;
}

/// One prove-selftest case: a known-unsafe program the analyzer must
/// *refute* by leaving the access at `unsafe_pc` unproven.
struct UnsafeCase {
  std::string name;
  cms::Program program;
  std::size_t unsafe_pc;
};

/// `--prove --selftest`: the safe corpus must be fully licensed AND every
/// seeded unsafe program must be refuted at the expected instruction.
int run_prove_selftest() {
  int failures = 0;

  // Side A: everything in the shipped corpus is proven and licensed.
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    const prove::ProveResult res =
        prove::prove_program(entry.program, entry.mem_doubles);
    const bool ok = res.valid && res.proven_count == res.access_count &&
                    res.licensed_region_count == res.regions.size();
    if (ok) {
      std::cout << "PASS safe " << entry.name << " (" << res.proven_count
                << "/" << res.access_count << " proven)\n";
    } else {
      ++failures;
      std::cout << "FAIL safe " << entry.name << ": " << res.proven_count
                << "/" << res.access_count << " proven, "
                << res.licensed_region_count << "/" << res.regions.size()
                << " regions licensed"
                << (res.valid ? "" : (", invalid: " + res.error)) << "\n";
    }
  }

  // Side B: seeded unsafe programs, each refuted at the bad access.
  std::vector<UnsafeCase> cases;
  {  // Store through a constant base provably past the end of memory.
    cases.push_back({"const-oob-store",
                     {make(Op::kMovi, 1, 0, 0, 100000),
                      make(Op::kFmovi, 0, 0, 0, 0),
                      make(Op::kFstore, 0, 1, 0, 0), make(Op::kHalt)},
                     2});
  }
  {  // Negative immediate offset off the zero base register.
    cases.push_back({"negative-offset-load",
                     {make(Op::kFload, 0, 0, 0, -3), make(Op::kHalt)},
                     0});
  }
  {  // Off-by-one loop: i runs to 4096 inclusive on a 4096-double machine.
    cases.push_back({"off-by-one-loop",
                     {make(Op::kMovi, 1, 0, 0, 0),
                      make(Op::kMovi, 2, 0, 0, 4097),
                      make(Op::kFload, 1, 1, 0, 0),
                      make(Op::kAddi, 1, 1, 0, 1),
                      make(Op::kBlt, 1, 2, 0, 2), make(Op::kHalt)},
                     2});
  }
  {  // Strided IV overruns: j += 8 for 600 trips reaches mem[4792].
    cases.push_back(
        {"strided-overrun", cms::strided_sum_program(600), 4});
  }
  {  // Branch-dependent base straddling the limit: hull is [0, 4096].
    cases.push_back({"branch-dependent-base",
                     {make(Op::kMovi, 1, 0, 0, 0),
                      make(Op::kMovi, 2, 0, 0, 4),
                      make(Op::kMovi, 3, 0, 0, 0),
                      make(Op::kMovi, 4, 0, 0, 2),
                      make(Op::kBlt, 3, 4, 0, 6),
                      make(Op::kAddi, 1, 0, 0, 4096),
                      make(Op::kFload, 1, 1, 0, 0),
                      make(Op::kAddi, 3, 3, 0, 1),
                      make(Op::kBlt, 3, 2, 0, 4), make(Op::kHalt)},
                     6});
  }
  {  // Guarded by kBne, not kBlt: no trip-count bound, widened to +inf.
    cases.push_back({"bne-guarded-loop",
                     {make(Op::kMovi, 1, 0, 0, 0),
                      make(Op::kMovi, 2, 0, 0, 16),
                      make(Op::kFload, 1, 1, 0, 0),
                      make(Op::kAddi, 1, 1, 0, 1),
                      make(Op::kBne, 1, 2, 0, 2), make(Op::kHalt)},
                     2});
  }

  for (const UnsafeCase& c : cases) {
    const prove::ProveResult res = prove::prove_program(c.program, 4096);
    bool refuted = false;
    std::string got;
    for (const prove::AccessProof& a : res.accesses) {
      if (a.pc == c.unsafe_pc) {
        refuted = res.valid && a.kind == prove::ProofKind::kUnproven;
        got = to_string(a.kind) + std::string(": ") + a.detail;
      }
    }
    // The engine gate must refuse the block holding the unsafe access.
    std::string why;
    const bool gate_refused = !prove::license_translation(
        c.program, 0, c.program.size(), 4096, &why);
    if (refuted && gate_refused) {
      std::cout << "PASS unsafe " << c.name << " (@" << c.unsafe_pc
                << " unproven; gate: " << why << ")\n";
    } else {
      ++failures;
      std::cout << "FAIL unsafe " << c.name << ": expected @" << c.unsafe_pc
                << " unproven + gate refusal, got "
                << (got.empty() ? "no access at that pc" : got)
                << (gate_refused ? "" : " (gate accepted)") << "\n";
    }
  }

  std::cout << "bladed-lint --prove --selftest: "
            << (failures == 0 ? "all programs classified correctly\n"
                              : std::to_string(failures) + " failure(s)\n");
  return failures == 0 ? kExitClean : kExitErrors;
}

/// One selftest case: the checker must emit `code` anchored at `instr`.
struct Expectation {
  std::string name;
  std::string code;
  std::size_t instr;
  check::Report report;
};

int run_selftest() {
  std::vector<Expectation> cases;

  {  // Read of a register no path ever writes (machine zero-fills: warning).
    cms::Program p = {make(Op::kFadd, 0, 1, 2), make(Op::kHalt)};
    cases.push_back({"uninit-register-read", "uninit-read", 0,
                     check::check_program(p)});
  }
  {  // Store whose address is provably past the end of memory.
    cms::Program p = {make(Op::kMovi, 1, 0, 0, 100000),
                      make(Op::kFmovi, 0, 0, 0, 0),
                      make(Op::kFstore, 0, 1, 0, 0), make(Op::kHalt)};
    cases.push_back({"oob-store-constant-base", "oob-store", 2,
                     check::check_program(p, 4096)});
  }
  {  // Negative immediate offset off the zero base register.
    cms::Program p = {make(Op::kFload, 0, 0, 0, -3), make(Op::kHalt)};
    cases.push_back({"oob-load-negative-offset", "oob-load", 0,
                     check::check_program(p, 4096)});
  }
  {  // Instruction 1 is jumped over and can never execute.
    cms::Program p = {make(Op::kJmp, 0, 0, 0, 2), make(Op::kMovi, 1, 0, 0, 7),
                      make(Op::kHalt)};
    cases.push_back({"unreachable-block", "unreachable", 1,
                     check::check_program(p)});
  }
  {  // r1 is written twice with no intervening read.
    cms::Program p = {make(Op::kMovi, 1, 0, 0, 1), make(Op::kMovi, 1, 0, 0, 2),
                      make(Op::kAddi, 2, 1, 0, 0), make(Op::kHalt)};
    cases.push_back({"dead-store", "dead-store", 0, check::check_program(p)});
  }
  {  // Conditional branch targeting one past the end: exit without halt.
    cms::Program p = {make(Op::kMovi, 1, 0, 0, 0), make(Op::kMovi, 2, 0, 0, 1),
                      make(Op::kBlt, 1, 2, 0, 3)};
    cases.push_back({"branch-to-end", "branch-exit", 2,
                     check::check_program(p)});
  }
  {  // Three ALU atoms crammed into one molecule (limit is two).
    cms::Program p = {make(Op::kAddi, 1, 0, 0, 1), make(Op::kAddi, 2, 0, 0, 2),
                      make(Op::kAddi, 3, 0, 0, 3), make(Op::kHalt)};
    cms::Translation t;
    t.entry_pc = 0;
    t.instr_count = 4;
    cms::Molecule m0{};
    m0.atom_pc = {0, 1, 2, 0};
    m0.atoms = 3;
    cms::Molecule m1{};
    m1.atom_pc = {3, 0, 0, 0};
    m1.atoms = 1;
    t.molecules = {m0, m1};
    cases.push_back({"molecule-resource-limit", "resource-limit", 0,
                     check::verify_translation(p, t)});
  }
  {  // Producer and consumer issued in the same cycle: RAW hazard.
    cms::Program p = {make(Op::kAddi, 1, 0, 0, 1), make(Op::kAdd, 2, 1, 1),
                      make(Op::kHalt)};
    cms::Translation t;
    t.entry_pc = 0;
    t.instr_count = 3;
    cms::Molecule m0{};
    m0.atom_pc = {0, 1, 0, 0};
    m0.atoms = 2;
    cms::Molecule m1{};
    m1.atom_pc = {2, 0, 0, 0};
    m1.atoms = 1;
    t.molecules = {m0, m1};
    cases.push_back({"intra-molecule-raw-hazard", "intra-molecule-hazard", 1,
                     check::verify_translation(p, t)});
  }
  {  // Consumer scheduled before its producer.
    cms::Program p = {make(Op::kFmul, 1, 2, 3), make(Op::kFadd, 4, 1, 1),
                      make(Op::kHalt)};
    cms::Translation t;
    t.entry_pc = 0;
    t.instr_count = 3;
    cms::Molecule m0{};
    m0.atom_pc = {1, 0, 0, 0};
    m0.atoms = 1;
    cms::Molecule m1{};
    m1.atom_pc = {0, 0, 0, 0};
    m1.atoms = 1;
    cms::Molecule m2{};
    m2.atom_pc = {2, 0, 0, 0};
    m2.atoms = 1;
    t.molecules = {m0, m1, m2};
    cases.push_back({"dependence-order-reversed", "dep-order", 1,
                     check::verify_translation(p, t)});
  }
  {  // Valid schedule with its stall cycles stripped: latency uncovered, so
     // native_cycles() would undercount.
    cms::Program p = {make(Op::kFmul, 1, 2, 3), make(Op::kFadd, 4, 1, 1),
                      make(Op::kHalt)};
    cms::Translator tr;
    cms::Translation t = tr.translate(p, 0);
    for (cms::Molecule& m : t.molecules) m.stall = 0;
    cases.push_back({"cycle-count-mismatch", "cycle-count", 1,
                     check::verify_translation(p, t)});
  }
  {  // Branch atom hiding in a non-final molecule.
    cms::Program p = {make(Op::kMovi, 1, 0, 0, 1),
                      make(Op::kBlt, 2, 3, 0, 0), make(Op::kHalt)};
    cms::Translation t;
    t.entry_pc = 0;
    t.instr_count = 2;
    cms::Molecule m0{};
    m0.atom_pc = {1, 0, 0, 0};
    m0.atoms = 1;
    cms::Molecule m1{};
    m1.atom_pc = {0, 0, 0, 0};
    m1.atoms = 1;
    t.molecules = {m0, m1};
    cases.push_back({"branch-not-last", "branch-placement", 1,
                     check::verify_translation(p, t)});
  }
  {  // An instruction covered twice, another not at all.
    cms::Program p = {make(Op::kMovi, 1, 0, 0, 1), make(Op::kMovi, 2, 0, 0, 2),
                      make(Op::kHalt)};
    cms::Translation t;
    t.entry_pc = 0;
    t.instr_count = 3;
    cms::Molecule m0{};
    m0.atom_pc = {0, 0, 0, 0};
    m0.atoms = 2;
    cms::Molecule m1{};
    m1.atom_pc = {2, 0, 0, 0};
    m1.atoms = 1;
    t.molecules = {m0, m1};
    cases.push_back({"coverage-duplicate", "coverage", 0,
                     check::verify_translation(p, t)});
  }

  int failures = 0;
  for (const Expectation& c : cases) {
    bool hit = false;
    for (const check::Diagnostic& d : c.report.diagnostics()) {
      if (d.code == c.code && d.instr == c.instr) hit = true;
    }
    if (hit) {
      std::cout << "PASS " << c.name << " (" << c.code << " @" << c.instr
                << ")\n";
    } else {
      ++failures;
      std::cout << "FAIL " << c.name << ": expected " << c.code << " @"
                << c.instr << ", got:\n"
                << (c.report.clean() ? std::string("  (no diagnostics)\n")
                                     : c.report.to_string());
    }
  }
  std::cout << "bladed-lint selftest: " << (cases.size() - failures) << "/"
            << cases.size() << " rejections behaved as expected\n";
  return failures == 0 ? kExitClean : kExitErrors;
}

constexpr const char* kUsage =
    "usage: bladed-lint [mode] [options]\n"
    "modes:\n"
    "  (default)          lint the built-in corpus: program checks,\n"
    "                     translation verification, differential check\n"
    "  --selftest         crafted bad programs/translations must be"
    " rejected\n"
    "  --opt              verified optimizer pipeline over opt_corpus\n"
    "  --prove            whole-program safety analysis over prove_corpus\n"
    "  --prove --selftest seeded unsafe programs must be refuted\n"
    "  --jit              tier-3 dry-run lowering plan over prove_corpus\n"
    "  --wcet             static cycle-bound certificates over prove_corpus\n"
    "  --wcet --selftest  seeded unlicensable loops must be refused\n"
    "options:\n"
    "  --verbose          per-entry detail\n"
    "  --json             with --prove / --wcet: machine-readable reports\n"
    "  --mem-doubles N    override each corpus entry's machine memory\n"
    "exit codes: 0 clean, 1 error findings / failed proof, 2 usage,\n"
    "3 warning findings only, 4 unproven accesses (--prove) or unbounded\n"
    "programs (--wcet)\n";

}  // namespace

int main(int argc, char** argv) {
  bool selftest = false;
  bool opt_mode = false;
  bool prove_mode = false;
  bool jit_mode = false;
  bool wcet_mode = false;
  bool verbose = false;
  bool json = false;
  std::size_t mem_override = 0;
  bladed::cli::Parser parser("bladed-lint", kUsage);
  parser.flag("--selftest", &selftest)
      .flag("--opt", &opt_mode)
      .flag("--prove", &prove_mode)
      .flag("--jit", &jit_mode)
      .flag("--wcet", &wcet_mode)
      .flag("--verbose", &verbose)
      .flag("--json", &json)
      .size_value("--mem-doubles", &mem_override);
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  if (opt_mode && (selftest || prove_mode)) {
    std::cerr << "bladed-lint: --opt combines with neither --selftest nor"
                 " --prove\n"
              << kUsage;
    return 2;
  }
  if (jit_mode && (selftest || opt_mode || prove_mode || wcet_mode)) {
    std::cerr << "bladed-lint: --jit is a standalone mode\n" << kUsage;
    return 2;
  }
  if (wcet_mode && (opt_mode || prove_mode)) {
    std::cerr << "bladed-lint: --wcet combines only with --selftest\n"
              << kUsage;
    return 2;
  }
  if (wcet_mode && selftest) return run_wcet_selftest();
  if (wcet_mode) return run_wcet(verbose, mem_override, json);
  if (jit_mode) return run_jit(verbose, mem_override);
  if (prove_mode && selftest) return run_prove_selftest();
  if (prove_mode) return run_prove(verbose, mem_override, json);
  if (selftest) return run_selftest();
  if (opt_mode) return run_opt(verbose, mem_override);
  return run_corpus(verbose, mem_override);
}
