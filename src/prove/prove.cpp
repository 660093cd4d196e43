#include "prove/prove.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bladed::prove {
namespace {

/// Shared range check for license_translation and the engine hook.
bool range_licensed(const ProveResult& res, std::size_t begin, std::size_t end,
                    std::string* why) {
  if (!res.valid) {
    if (why != nullptr) *why = "structurally invalid program: " + res.error;
    return false;
  }
  for (const AccessProof& a : res.accesses) {
    if (a.pc < begin || a.pc >= end) continue;
    if (a.kind == ProofKind::kUnproven) {
      if (why != nullptr) {
        *why = std::string(a.is_store ? "store" : "load") + " at pc " +
               std::to_string(a.pc) + " unproven: " + a.detail;
      }
      return false;
    }
  }
  return true;
}

std::uint64_t hash_program(const cms::Program& prog, std::size_t mem) {
  // FNV-1a over the instruction fields + memory size. A collision could in
  // principle hand one program another's license; at 64 bits that needs
  // billions of distinct programs per process, far beyond any engine run.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(mem);
  for (const cms::Instr& in : prog) {
    mix(static_cast<std::uint64_t>(in.op));
    mix(static_cast<std::uint64_t>(in.a));
    mix(static_cast<std::uint64_t>(in.b));
    mix(static_cast<std::uint64_t>(in.c));
    mix(static_cast<std::uint64_t>(in.imm_i));
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(in.imm_f));
    __builtin_memcpy(&bits, &in.imm_f, sizeof(bits));
    mix(bits);
  }
  return h;
}

}  // namespace

ProveResult prove_program(const cms::Program& prog, std::size_t mem_doubles) {
  ProveResult res;
  res.mem_doubles = mem_doubles;
  try {
    cms::validate(prog, mem_doubles);
  } catch (const std::exception& e) {
    res.error = e.what();
    return res;
  }
  res.valid = true;
  if (prog.empty()) return res;

  const Context ctx(prog, mem_doubles);
  const std::vector<LoopBound> bounds = compute_loop_bounds(ctx);
  res.accesses = prove_accesses(ctx, bounds);
  res.aliases = all_alias_facts(ctx);
  res.regions = form_regions(ctx, bounds, res.accesses);

  res.access_count = res.accesses.size();
  for (const AccessProof& a : res.accesses) {
    if (a.kind != ProofKind::kUnproven) ++res.proven_count;
  }
  res.proven_fraction =
      res.access_count == 0
          ? 1.0
          : static_cast<double>(res.proven_count) /
                static_cast<double>(res.access_count);

  for (const RegionLicense& r : res.regions) {
    if (r.licensed) ++res.licensed_region_count;
  }

  // Hot-cycle coverage: instructions of natural-loop blocks that sit inside
  // some licensed region, over all natural-loop instructions.
  std::size_t loop_instrs = 0;
  std::size_t covered = 0;
  for (std::size_t b = 0; b < ctx.cfg().blocks().size(); ++b) {
    bool in_loop = false;
    for (const check::NaturalLoop& loop : ctx.loops()) {
      if (loop.contains(b)) {
        in_loop = true;
        break;
      }
    }
    if (!in_loop) continue;
    const check::BasicBlock& bb = ctx.cfg().blocks()[b];
    loop_instrs += bb.end - bb.begin;
    for (const RegionLicense& r : res.regions) {
      if (r.licensed &&
          std::find(r.blocks.begin(), r.blocks.end(), b) != r.blocks.end()) {
        covered += bb.end - bb.begin;
        break;
      }
    }
  }
  res.hot_coverage = loop_instrs == 0 ? 1.0
                                      : static_cast<double>(covered) /
                                            static_cast<double>(loop_instrs);
  return res;
}

std::string to_json(const ProveResult& res, const std::string& name) {
  Json doc = Json::object();
  doc.set("schema", "bladed-prove-v1")
      .set("program", name)
      .set("mem_doubles", res.mem_doubles)
      .set("valid", res.valid);
  if (!res.valid) return doc.set("error", res.error).dump();

  Json accesses = Json::array();
  for (const AccessProof& a : res.accesses) {
    Json j = Json::object();
    j.set("pc", a.pc)
        .set("kind", a.is_store ? "store" : "load")
        .set("proof", to_string(a.kind));
    if (a.kind != ProofKind::kUnproven) {
      j.set("lo", a.addr.lo).set("hi", a.addr.hi);
    }
    j.set("detail", a.detail);
    accesses.push(std::move(j));
  }

  Json aliases = Json::array();
  for (const AliasFact& f : res.aliases) {
    Json j = Json::object();
    j.set("a", f.pc_a)
        .set("b", f.pc_b)
        .set("verdict", to_string(f.result.verdict))
        .set("universal", f.result.universal)
        .set("reason", f.result.reason);
    aliases.push(std::move(j));
  }

  Json regions = Json::array();
  for (const RegionLicense& r : res.regions) {
    Json blocks = Json::array();
    for (const std::size_t b : r.blocks) blocks.push(b);
    Json unproven = Json::array();
    for (const std::size_t pc : r.unproven_pcs) unproven.push(pc);
    Json j = Json::object();
    j.set("entry_pc", r.entry_pc)
        .set("blocks", std::move(blocks))
        .set("instructions", r.instr_count)
        .set("loop", r.is_loop)
        .set("max_trips", r.max_trips)
        .set("licensed", r.licensed)
        .set("accesses", r.access_count)
        .set("unproven", std::move(unproven))
        .set("no_alias_pairs", r.no_alias_pairs)
        .set("must_alias_pairs", r.must_alias_pairs)
        .set("may_alias_pairs", r.may_alias_pairs);
    regions.push(std::move(j));
  }

  Json summary = Json::object();
  summary.set("accesses", res.access_count)
      .set("proven", res.proven_count)
      .set("proven_fraction", res.proven_fraction)
      .set("regions", res.regions.size())
      .set("licensed_regions", res.licensed_region_count)
      .set("hot_coverage", res.hot_coverage);
  return doc.set("accesses", std::move(accesses))
      .set("alias_pairs", std::move(aliases))
      .set("regions", std::move(regions))
      .set("summary", std::move(summary))
      .dump();
}

bool license_translation(const cms::Program& prog, std::size_t begin,
                         std::size_t end, std::size_t mem_doubles,
                         std::string* why) {
  if (begin >= end || end > prog.size()) {
    if (why != nullptr) *why = "invalid pc range";
    return false;
  }
  return range_licensed(prove_program(prog, mem_doubles), begin, end, why);
}

cms::RegionProver engine_prover() {
  // One analysis per distinct (program, memory size); the engine invokes
  // the hook once per hot block. Engines run single-threaded, so a plain
  // map shared by the copies of this lambda suffices.
  auto cache = std::make_shared<
      std::unordered_map<std::uint64_t, std::shared_ptr<const ProveResult>>>();
  return [cache](const cms::Program& prog, std::size_t begin, std::size_t end,
                 std::size_t mem_doubles, std::string* why) {
    if (begin >= end || end > prog.size()) {
      if (why != nullptr) *why = "invalid pc range";
      return false;
    }
    const std::uint64_t key = hash_program(prog, mem_doubles);
    std::shared_ptr<const ProveResult> res;
    const auto it = cache->find(key);
    if (it != cache->end()) {
      res = it->second;
    } else {
      res = std::make_shared<const ProveResult>(
          prove_program(prog, mem_doubles));
      (*cache)[key] = res;
    }
    return range_licensed(*res, begin, end, why);
  };
}

}  // namespace bladed::prove
