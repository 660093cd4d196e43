/// bladed::wcet certificate tests: corpus-wide boundedness, golden
/// precision ratios against the real engine, unbounded verdicts at the
/// right program points, the opt pipeline's cost gate, and the certified
/// JIT promotion budgets (which must never change engine cycle counts).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "cms/engine.hpp"
#include "cms/programs.hpp"
#include "common/rng.hpp"
#include "jit/jit.hpp"
#include "opt/opt.hpp"
#include "wcet/wcet.hpp"

namespace bladed::wcet {
namespace {

using cms::Instr;
using cms::Op;
using cms::Program;

Instr make(Op op, int a = 0, int b = 0, int c = 0, std::int64_t imm = 0) {
  Instr in;
  in.op = op;
  in.a = a;
  in.b = b;
  in.c = c;
  in.imm_i = imm;
  return in;
}

const cms::NamedProgram& corpus_entry(const std::string& name) {
  static const std::vector<cms::NamedProgram> corpus = cms::prove_corpus();
  for (const cms::NamedProgram& np : corpus) {
    if (np.name == name) return np;
  }
  ADD_FAILURE() << "no corpus program named " << name;
  static const cms::NamedProgram empty{};
  return empty;
}

cms::MorphingStats run_fresh(const cms::MorphingConfig& cfg,
                             const Program& prog, std::size_t mem) {
  cms::MorphingEngine engine{cfg};
  cms::MachineState st(mem);
  return engine.run(prog, st);
}

TEST(WcetCertify, EveryCorpusProgramIsBounded) {
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    const Certificate cert = certify(entry.program, entry.mem_doubles);
    EXPECT_TRUE(cert.valid) << entry.name << ": " << cert.error;
    EXPECT_TRUE(cert.bounded) << entry.name << ": " << cert.to_string();
    EXPECT_FALSE(cert.entries.empty()) << entry.name;
    EXPECT_LE(cert.interpret.lower, cert.interpret.upper) << entry.name;
    EXPECT_LE(cert.tier2.lower, cert.tier2.upper) << entry.name;
    // tier-2 can only be cheaper than pure interpretation on the low side.
    EXPECT_LE(cert.tier2.lower, cert.interpret.lower) << entry.name;
    EXPECT_EQ(cert.tier3.lower, cert.tier2.lower) << entry.name;
    EXPECT_EQ(cert.tier3.upper, cert.tier2.upper) << entry.name;
  }
}

TEST(WcetCertify, CorpusBoundsHoldAgainstTheRealEngine) {
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    cms::MorphingConfig cfg = cms::cms_42x();
    const Certificate cert =
        certify(entry.program, entry.mem_doubles, CostParams::from(cfg));
    ASSERT_TRUE(cert.bounded) << entry.name;

    const cms::MorphingStats t2 =
        run_fresh(cfg, entry.program, entry.mem_doubles);
    EXPECT_GE(t2.total_cycles, cert.tier2.lower) << entry.name;
    EXPECT_LE(t2.total_cycles, cert.tier2.upper) << entry.name;

    cms::MorphingConfig interp = cfg;
    interp.hot_threshold = std::numeric_limits<std::uint64_t>::max();
    const cms::MorphingStats ti =
        run_fresh(interp, entry.program, entry.mem_doubles);
    EXPECT_EQ(ti.translations, 0u) << entry.name;
    EXPECT_GE(ti.total_cycles, cert.interpret.lower) << entry.name;
    EXPECT_LE(ti.total_cycles, cert.interpret.upper) << entry.name;
  }
}

/// Golden precision gate: the two reference kernels must certify within
/// 2.0x of the cycles the engine actually charges (EXPERIMENTS.md tracks
/// the measured ratios).
TEST(WcetCertify, GoldenKernelPrecision) {
  for (const char* name : {"naive_daxpy_n256", "naive_mg_stencil_n256"}) {
    const cms::NamedProgram& entry = corpus_entry(name);
    cms::MorphingConfig cfg = cms::cms_42x();
    const Certificate cert =
        certify(entry.program, entry.mem_doubles, CostParams::from(cfg));
    ASSERT_TRUE(cert.bounded) << name;
    const cms::MorphingStats st =
        run_fresh(cfg, entry.program, entry.mem_doubles);
    ASSERT_GT(st.total_cycles, 0u) << name;
    const double ratio = static_cast<double>(cert.tier2.upper) /
                         static_cast<double>(st.total_cycles);
    EXPECT_GE(ratio, 1.0) << name;
    EXPECT_LE(ratio, 2.0) << name << ": certified upper " << cert.tier2.upper
                          << " vs actual " << st.total_cycles;
  }
}

TEST(WcetCertify, UnlicensedLatchGetsUnboundedVerdictAtHeader) {
  // kBne latch: prove/bounds only licenses canonical kBlt latches.
  const Program p = {make(Op::kMovi, 1, 0, 0, 0),
                     make(Op::kMovi, 2, 0, 0, 16),
                     make(Op::kAddi, 1, 1, 0, 1),
                     make(Op::kBne, 1, 2, 0, 2), make(Op::kHalt)};
  const Certificate cert = certify(p, 4096);
  ASSERT_TRUE(cert.valid);
  EXPECT_FALSE(cert.bounded);
  ASSERT_EQ(cert.unbounded.size(), 1u);
  EXPECT_EQ(cert.unbounded[0].pc, 2u);
  EXPECT_TRUE(cert.entries.empty());
}

TEST(WcetCertify, SelfLoopWithoutInductionIsUnbounded) {
  const Program p = {make(Op::kMovi, 1, 0, 0, 0),
                     make(Op::kJmp, 0, 0, 0, 1), make(Op::kHalt)};
  const Certificate cert = certify(p, 4096);
  ASSERT_TRUE(cert.valid);
  EXPECT_FALSE(cert.bounded);
  ASSERT_EQ(cert.unbounded.size(), 1u);
  EXPECT_EQ(cert.unbounded[0].pc, 1u);
}

TEST(WcetCertify, StraightLineProgramHasExactInterpretBound) {
  // No branches: one entry at pc 0, executed exactly once — the interpret
  // interval collapses to a point and the engine must land on it.
  const Program p = {make(Op::kMovi, 1, 0, 0, 3),
                     make(Op::kAddi, 2, 1, 0, 4),
                     make(Op::kFmovi, 0), make(Op::kHalt)};
  cms::MorphingConfig cfg;
  const Certificate cert = certify(p, 64, CostParams::from(cfg));
  ASSERT_TRUE(cert.bounded);
  EXPECT_EQ(cert.interpret.lower, cert.interpret.upper);
  const cms::MorphingStats st = run_fresh(cfg, p, 64);
  EXPECT_EQ(st.total_cycles, cert.interpret.upper);
}

TEST(WcetCertify, InvalidProgramReportsErrorNotCrash) {
  const Program p = {make(Op::kJmp, 0, 0, 0, 99), make(Op::kHalt)};
  const Certificate cert = certify(p, 64);
  EXPECT_FALSE(cert.valid);
  EXPECT_FALSE(cert.error.empty());
  EXPECT_FALSE(cert.bounded);
}

TEST(WcetCertify, JsonMentionsSchemaFields) {
  const cms::NamedProgram& entry = corpus_entry("naive_daxpy_n256");
  const Certificate cert = certify(entry.program, entry.mem_doubles);
  const std::string json = cert.to_json().dump();
  EXPECT_NE(json.find("\"bounded\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tiers\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"interpret\""), std::string::npos) << json;
}

TEST(WcetCertify, HostileStringsRoundTripThroughTheJson) {
  const std::string hostile =
      std::string("q\"b\\s\nn\tt") + '\x01' + "end";
  Certificate invalid;
  invalid.error = hostile;
  EXPECT_EQ(Json::parse(invalid.to_json().dump()).get("error").as_string(),
            hostile);

  Certificate unbounded;
  unbounded.valid = true;
  unbounded.unbounded.push_back({7, hostile});
  const Json doc = Json::parse(unbounded.to_json().dump());
  EXPECT_FALSE(doc.get("bounded").as_bool());
  const Json& site = doc.get("unbounded").as_array().at(0);
  EXPECT_EQ(site.get("pc").as_number(), 7.0);
  EXPECT_EQ(site.get("reason").as_string(), hostile);
}

TEST(WcetCertify, JsonBoundsAreExactIntegers) {
  // A bound of 2^53 + 1 cycles has no double; printing the nearest one
  // would put the certified upper bound below the true bound.
  Certificate cert;
  cert.valid = true;
  cert.bounded = true;
  cert.tier2 = {1, (1ULL << 53) + 1};
  cert.tier3 = {2, std::numeric_limits<std::uint64_t>::max()};
  const std::string json = cert.to_json().dump();
  EXPECT_NE(json.find(R"("tier2":{"lower":1,"upper":9007199254740993})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("tier3":{"lower":2,"upper":"saturated"})"),
            std::string::npos)
      << json;
}

/// The opt cost gate: a pass that increases the certified upper bound is
/// rolled back, and the per-pass report carries both bounds.
TEST(WcetOptGate, DeltasCarryCertifiedBounds) {
  const cms::NamedProgram& entry = corpus_entry("naive_daxpy_n256");
  opt::OptOptions opts;
  opts.level = 2;
  opts.mem_doubles = entry.mem_doubles;
  const opt::OptResult res = opt::optimize(entry.program, opts);
  bool saw_applied = false;
  for (const opt::PassDelta& d : res.deltas) {
    if (!d.applied && !d.rejected && !d.cost_rolled_back) continue;
    saw_applied |= d.applied;
    EXPECT_GT(d.certified_before, 0u) << d.pass;
    EXPECT_GT(d.certified_after, 0u) << d.pass;
    if (d.applied) {
      // The gate admitted it: the bound must not have gone up.
      EXPECT_LE(d.certified_after, d.certified_before) << d.pass;
    } else {
      // Rejected or priced out: the rollback kept the old bound, and a
      // cost rollback is never reported as a proof rejection.
      EXPECT_FALSE(d.cost_rolled_back && d.rejected) << d.pass;
      EXPECT_EQ(d.certified_after, d.certified_before) << d.pass;
    }
  }
  EXPECT_TRUE(saw_applied) << "expected at least one applied pass";
}

TEST(WcetOptGate, GateOffSkipsCertification) {
  const cms::NamedProgram& entry = corpus_entry("naive_daxpy_n256");
  opt::OptOptions opts;
  opts.level = 2;
  opts.mem_doubles = entry.mem_doubles;
  opts.cost_gate = false;
  const opt::OptResult res = opt::optimize(entry.program, opts);
  for (const opt::PassDelta& d : res.deltas) {
    EXPECT_EQ(d.certified_before, 0u) << d.pass;
    EXPECT_EQ(d.certified_after, 0u) << d.pass;
  }
}

TEST(WcetOptGate, GatedPipelineOutputNeverCostsMore) {
  // End-to-end property across the whole corpus: the optimized program's
  // certified bound never exceeds the source program's.
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    opt::OptOptions opts;
    opts.level = 2;
    opts.mem_doubles = entry.mem_doubles;
    const opt::OptResult res = opt::optimize(entry.program, opts);
    const Certificate before = certify(entry.program, entry.mem_doubles);
    const Certificate after = certify(res.program, entry.mem_doubles);
    ASSERT_TRUE(before.bounded && after.bounded) << entry.name;
    EXPECT_LE(after.tier2.upper, before.tier2.upper) << entry.name;
  }
}

/// Certified JIT budgets: cycle accounting must be bit-identical to
/// counting-based promotion (the tier-3 contract), and certified-cold
/// entries must never be compiled.
TEST(WcetJitBudgets, CyclesBitIdenticalToCountingPromotion) {
  for (const cms::NamedProgram& entry : cms::prove_corpus()) {
    cms::MorphingConfig counting = cms::cms_43x();
    jit::attach_jit(counting);
    counting.optimizer = nullptr;
    counting.prover = nullptr;
    counting.jit_threshold = 2;

    cms::MorphingConfig certified = counting;
    jit::attach_certified_budgets(certified);

    cms::MachineState initial(entry.mem_doubles);
    Rng rng(0xb1ade);
    for (double& cell : initial.mem) cell = rng.uniform(-1.0, 1.0);

    cms::MachineState s0 = initial;
    cms::MachineState s1 = initial;
    cms::MorphingEngine e0{counting};
    cms::MorphingEngine e1{certified};
    const cms::MorphingStats st0 = e0.run(entry.program, s0);
    const cms::MorphingStats st1 = e1.run(entry.program, s1);

    EXPECT_EQ(st0.total_cycles, st1.total_cycles) << entry.name;
    EXPECT_EQ(st0.interpret_cycles, st1.interpret_cycles) << entry.name;
    EXPECT_EQ(st0.translate_cycles, st1.translate_cycles) << entry.name;
    EXPECT_EQ(st0.native_cycles, st1.native_cycles) << entry.name;
    EXPECT_EQ(std::memcmp(s0.r, s1.r, sizeof(s0.r)), 0) << entry.name;
    EXPECT_EQ(std::memcmp(s0.f, s1.f, sizeof(s0.f)), 0) << entry.name;
    ASSERT_EQ(s0.mem.size(), s1.mem.size()) << entry.name;
    EXPECT_EQ(std::memcmp(s0.mem.data(), s1.mem.data(),
                          s0.mem.size() * sizeof(double)),
              0)
        << entry.name;
  }
}

TEST(WcetJitBudgets, CertifiedHotEntryCompilesOnFirstNativeExecution) {
  // A long counted loop certifies as hot; with certified budgets the region
  // compiles at its first native execution instead of after jit_threshold
  // warm-up laps — visible as at least as many jit block executions.
  const cms::NamedProgram& entry = corpus_entry("naive_daxpy_n256");

  cms::MorphingConfig counting = cms::cms_42x();
  jit::attach_jit(counting);
  counting.optimizer = nullptr;
  counting.prover = nullptr;
  counting.jit_threshold = 64;

  cms::MorphingConfig certified = counting;
  jit::attach_certified_budgets(certified);

  const cms::MorphingStats st0 =
      run_fresh(counting, entry.program, entry.mem_doubles);
  const cms::MorphingStats st1 =
      run_fresh(certified, entry.program, entry.mem_doubles);
  EXPECT_EQ(st0.total_cycles, st1.total_cycles);
  EXPECT_GE(st1.jit_block_executions, st0.jit_block_executions);
  EXPECT_GT(st1.jit_regions, 0u);
}

TEST(WcetJitBudgets, UnboundedProgramFallsBackToCounting) {
  // kBne latch: no certificate, so the budget hook must defer to the
  // jit_threshold counter (and the engine still runs correctly).
  const Program p = {make(Op::kMovi, 1, 0, 0, 0),
                     make(Op::kMovi, 2, 0, 0, 64),
                     make(Op::kFmovi, 0),
                     make(Op::kAddi, 1, 1, 0, 1),
                     make(Op::kBne, 1, 2, 0, 2), make(Op::kHalt)};
  ASSERT_FALSE(certify(p, 256).bounded);

  cms::MorphingConfig counting = cms::cms_43x();
  jit::attach_jit(counting);
  counting.optimizer = nullptr;
  counting.prover = nullptr;
  counting.jit_threshold = 2;
  cms::MorphingConfig certified = counting;
  jit::attach_certified_budgets(certified);

  const cms::MorphingStats st0 = run_fresh(counting, p, 256);
  const cms::MorphingStats st1 = run_fresh(certified, p, 256);
  EXPECT_EQ(st0.total_cycles, st1.total_cycles);
  EXPECT_EQ(st0.jit_block_executions, st1.jit_block_executions);
}

}  // namespace
}  // namespace bladed::wcet
