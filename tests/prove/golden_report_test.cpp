/// Golden analyzer reports for the daxpy / NPB-stencil corpus: the exact
/// alias facts the optimizer passes consume, the proof kinds, the region
/// licenses, the bladed-prove-v1 JSON serialization, and the engine's
/// region-prover gate (cached accept path and refusal path).

#include "prove/prove.hpp"

#include <gtest/gtest.h>

#include "cms/programs.hpp"
#include "common/json.hpp"

namespace bladed::prove {
namespace {

using cms::Program;

const AliasFact* find_fact(const ProveResult& res, std::size_t a,
                           std::size_t b) {
  for (const AliasFact& f : res.aliases) {
    if (f.pc_a == a && f.pc_b == b) return &f;
  }
  return nullptr;
}

TEST(Golden, NaiveDaxpyFactsLicenseTheHoist) {
  const ProveResult res =
      prove_program(cms::naive_daxpy_program(32), 4096);
  ASSERT_TRUE(res.valid);
  EXPECT_EQ(res.access_count, 5u);
  EXPECT_EQ(res.proven_count, 5u);
  EXPECT_DOUBLE_EQ(res.proven_fraction, 1.0);
  EXPECT_DOUBLE_EQ(res.hot_coverage, 1.0);

  // The fact LICM's hoist of the a-reload rides on: the loop-invariant
  // load of mem[2n] never aliases the y-store — universally, across
  // iterations, not just within one block execution.
  const AliasFact* hoist = find_fact(res, 4, 11);
  ASSERT_NE(hoist, nullptr);
  EXPECT_EQ(hoist->result.verdict, AliasVerdict::kNoAlias);
  EXPECT_TRUE(hoist->result.universal);

  // y-load vs y-store: same cell within one iteration.
  const AliasFact* y = find_fact(res, 9, 11);
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->result.verdict, AliasVerdict::kMustAlias);

  ASSERT_EQ(res.regions.size(), 2u);
  EXPECT_TRUE(res.regions[1].is_loop);
  EXPECT_EQ(res.regions[1].max_trips, 32);
  EXPECT_TRUE(res.regions[1].licensed);
}

TEST(Golden, StencilFactsLicenseTheMemoryDeadStore) {
  const ProveResult res =
      prove_program(cms::naive_stencil_program(32), 4096);
  ASSERT_TRUE(res.valid);
  EXPECT_EQ(res.access_count, 6u);
  EXPECT_EQ(res.proven_count, 6u);

  // The zeroing store at 4 and the result store at 13 hit the same cell
  // in every iteration — the dead-memory-store license.
  const AliasFact* dead = find_fact(res, 4, 13);
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->result.verdict, AliasVerdict::kMustAlias);

  // Neither store touches the x loads (separate halves of memory).
  for (std::size_t load_pc : {5u, 6u, 8u, 10u}) {
    const AliasFact* f = find_fact(res, 4, load_pc);
    ASSERT_NE(f, nullptr) << "missing fact (4," << load_pc << ")";
    EXPECT_EQ(f->result.verdict, AliasVerdict::kNoAlias);
    EXPECT_TRUE(f->result.universal);
  }

  for (const AccessProof& a : res.accesses) {
    EXPECT_EQ(a.kind, ProofKind::kInterval) << "pc " << a.pc;
  }
}

TEST(Golden, StridedSumJsonReport) {
  const ProveResult res = prove_program(cms::strided_sum_program(64), 4096);
  const std::string json = to_json(res, "strided_sum_n64");
  EXPECT_NE(json.find("\"schema\":\"bladed-prove-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"program\":\"strided_sum_n64\""), std::string::npos);
  EXPECT_NE(json.find("\"proof\":\"trip-count\""), std::string::npos);
  EXPECT_NE(json.find("\"max_trips\":64"), std::string::npos);
  EXPECT_NE(json.find("\"licensed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"proven\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"licensed\":false"), std::string::npos);
}

TEST(Golden, InvalidProgramReportsNotThrows) {
  Program p = {cms::Instr{}};
  p[0].op = cms::Op::kFload;
  p[0].a = 99;  // bad register index
  const ProveResult res = prove_program(p, 4096);
  EXPECT_FALSE(res.valid);
  EXPECT_FALSE(res.error.empty());
  const std::string json = to_json(res, "bad");
  EXPECT_NE(json.find("\"valid\":false"), std::string::npos);
}

TEST(Golden, HostileStringsRoundTripThroughTheReport) {
  const std::string hostile =
      std::string("q\"b\\s\nn\tt") + '\x01' + "end";
  ProveResult bad;
  bad.error = hostile;
  const Json invalid = Json::parse(to_json(bad, hostile));
  EXPECT_EQ(invalid.get("program").as_string(), hostile);
  EXPECT_FALSE(invalid.get("valid").as_bool());
  EXPECT_EQ(invalid.get("error").as_string(), hostile);

  ProveResult ok;
  ok.valid = true;
  AccessProof a;
  a.pc = 3;
  a.detail = hostile;
  ok.accesses.push_back(a);
  AliasFact f;
  f.result.reason = hostile.c_str();
  ok.aliases.push_back(f);
  const Json valid = Json::parse(to_json(ok, "p"));
  const Json& access = valid.get("accesses").as_array().at(0);
  EXPECT_EQ(access.get("detail").as_string(), hostile);
  const Json& alias = valid.get("alias_pairs").as_array().at(0);
  EXPECT_EQ(alias.get("reason").as_string(), hostile);
}

TEST(Golden, ProveReportFractionsPrintAtFullPrecision) {
  ProveResult res;
  res.valid = true;
  res.proven_fraction = 2.0 / 3.0;
  res.hot_coverage = 0.1;
  const Json doc = Json::parse(to_json(res, "p"));
  const Json& summary = doc.get("summary");
  EXPECT_EQ(summary.get("proven_fraction").as_number(), 2.0 / 3.0);
  EXPECT_EQ(summary.get("hot_coverage").as_number(), 0.1);
}

TEST(Golden, LicenseTranslationRangeQueries) {
  const Program p = cms::daxpy_program(32);
  std::string why;
  EXPECT_TRUE(license_translation(p, 0, p.size(), 4096, &why)) << why;
  EXPECT_TRUE(license_translation(p, 3, 10, 4096, &why)) << why;
  // Degenerate / out-of-range spans refuse rather than vacuously accept.
  EXPECT_FALSE(license_translation(p, 5, 5, 4096, &why));
  EXPECT_FALSE(license_translation(p, 0, p.size() + 1, 4096, &why));

  // A tiny machine makes the y-accesses unprovable: refusal names the pc.
  EXPECT_FALSE(license_translation(p, 0, p.size(), 8, &why));
  EXPECT_NE(why.find("unproven"), std::string::npos);
}

TEST(Golden, EngineProverCachesAndGates) {
  const cms::RegionProver prover = engine_prover();
  const Program good = cms::daxpy_program(32);
  std::string why;
  // Two queries against one program: the second hits the analysis cache
  // (observable only as "still correct", but exercises the path).
  EXPECT_TRUE(prover(good, 0, 3, 4096, &why)) << why;
  EXPECT_TRUE(prover(good, 3, 10, 4096, &why)) << why;

  Program bad = good;
  bad[3].imm_i = 100000;  // x-load lands far out of bounds
  EXPECT_FALSE(prover(bad, 3, 10, 4096, &why));
  EXPECT_NE(why.find("pc 3"), std::string::npos);
}

TEST(Golden, EngineDebugGateRunsTheProver) {
  // End to end: a debug-mode engine with the prover installed licenses the
  // whole corpus run; the same engine refuses a program whose hot block
  // carries an unprovable access. The refused program is *dynamically*
  // safe (r1 stays far in bounds) — only the license is missing, because
  // a kBne guard yields no trip bound — so the refusal provably comes
  // from the gate, not from an interpreter trap.
  cms::MorphingConfig cfg;
  cfg.verify_translations = true;
  cfg.prover = engine_prover();
  cms::MorphingEngine engine(cfg);
  cms::MachineState st(4096);
  const cms::MorphingStats stats =
      engine.run(cms::naive_stencil_program(32), st);
  EXPECT_GT(stats.total_cycles, 0u);

  const auto mk = [](cms::Op op, int a, int b, std::int64_t imm) {
    cms::Instr in;
    in.op = op;
    in.a = a;
    in.b = b;
    in.imm_i = imm;
    return in;
  };
  const Program bad = {
      mk(cms::Op::kMovi, 1, 0, 0),   mk(cms::Op::kMovi, 2, 0, 64),
      mk(cms::Op::kFload, 0, 1, 0),  mk(cms::Op::kAddi, 1, 1, 1),
      mk(cms::Op::kBne, 1, 2, 2),    mk(cms::Op::kHalt, 0, 0, 0),
  };
  cms::MachineState st2(4096);
  try {
    (void)engine.run(bad, st2);
    FAIL() << "engine accepted an unlicensed hot block";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("region license"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bladed::prove
