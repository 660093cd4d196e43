#include "wcet/wcet.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <utility>

#include "check/cfg.hpp"
#include "check/dominators.hpp"
#include "cms/interpreter.hpp"
#include "cms/translator.hpp"
#include "prove/bounds.hpp"
#include "prove/context.hpp"

namespace bladed::wcet {

namespace {

constexpr std::uint64_t kSat = std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > kSat - b ? kSat : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kSat / b ? kSat : a * b;
}

/// Cycles the interpreter charges for one execution of the engine block at
/// `pc` (the `block_end` region, exactly what Interpreter::run_block walks):
/// dispatch + latency per instruction, dispatch only for the halt.
std::uint64_t interp_cost(const cms::Program& prog, std::size_t pc,
                          const cms::InterpreterCosts& costs) {
  std::uint64_t cycles = 0;
  const std::size_t end = cms::block_end(prog, pc);
  for (std::size_t i = pc; i < end; ++i) {
    if (prog[i].op == cms::Op::kHalt) {
      cycles += static_cast<std::uint64_t>(costs.dispatch_cycles);
      break;
    }
    cycles += static_cast<std::uint64_t>(costs.dispatch_cycles +
                                         cms::latency_of(prog[i].op));
  }
  return cycles;
}

/// Dispatch successors of the engine block at `pc`: the pcs the engine's
/// run loop can re-enter at after executing [pc, block_end). `exit` (the
/// program size) stands for leaving the program — retiring a halt, a branch
/// one past the end, or falling off the end.
std::vector<std::size_t> engine_succs(const cms::Program& prog,
                                      std::size_t pc) {
  const std::size_t exit = prog.size();
  const std::size_t end = cms::block_end(prog, pc);
  const cms::Instr& last = prog[end - 1];
  if (last.op == cms::Op::kHalt) return {exit};
  if (!cms::is_branch(last.op)) return {exit};  // fell off the end
  const auto target = static_cast<std::size_t>(last.imm_i);
  if (last.op == cms::Op::kJmp) return {target};
  return {target, end};  // taken, fallthrough (end == last + 1)
}

/// Reverse post-order of the reachable CFG blocks (iterative DFS from the
/// entry block). Retreating edges under this order are exactly the edges
/// the trip-count argument must license.
std::vector<std::size_t> reverse_post_order(const check::Cfg& cfg) {
  const auto& blocks = cfg.blocks();
  std::vector<std::size_t> order;
  if (blocks.empty()) return order;
  std::vector<std::uint8_t> state(blocks.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  stack.emplace_back(cfg.block_of(0), 0);
  state[cfg.block_of(0)] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    const auto& succs = blocks[b].succs;
    bool descended = false;
    while (next < succs.size()) {
      const std::size_t leader = succs[next++];
      if (leader == cfg.exit_pc()) continue;
      const std::size_t s = cfg.block_of(leader);
      if (state[s] == 0) {
        state[s] = 1;
        stack.emplace_back(s, 0);
        descended = true;
        break;
      }
    }
    if (descended) continue;
    state[b] = 2;
    order.push_back(b);
    stack.pop_back();
  }
  std::reverse(order.begin(), order.end());
  return order;
}

Json bound_json(std::uint64_t v) {
  return v == kSat ? Json("saturated") : Json(v);
}

}  // namespace

const char* to_string(Tier t) {
  switch (t) {
    case Tier::kInterpret: return "interpret";
    case Tier::kTier2: return "tier2";
    case Tier::kTier3: return "tier3";
  }
  return "?";
}

CostParams CostParams::from(const cms::MorphingConfig& cfg) {
  CostParams p;
  p.interpreter = cfg.interpreter;
  p.molecule = cfg.molecule;
  p.translator = cfg.translator;
  p.cache_molecules = cfg.cache_molecules;
  p.hot_threshold = cfg.hot_threshold;
  return p;
}

const TierBounds& Certificate::for_tier(Tier t) const {
  switch (t) {
    case Tier::kInterpret: return interpret;
    case Tier::kTier2: return tier2;
    case Tier::kTier3: return tier3;
  }
  return tier2;
}

Certificate certify(const cms::Program& prog, std::size_t mem_doubles,
                    const CostParams& costs) {
  Certificate cert;
  try {
    cms::validate(prog, mem_doubles);
  } catch (const std::exception& e) {
    cert.error = e.what();
    return cert;
  }
  cert.valid = true;
  if (prog.empty()) {
    cert.bounded = true;
    return cert;
  }

  const prove::Context ctx(prog, mem_doubles);
  const check::Cfg& cfg = ctx.cfg();
  const auto& blocks = cfg.blocks();
  const std::vector<check::NaturalLoop>& loops = ctx.loops();
  const std::vector<prove::LoopBound> bounds = prove::compute_loop_bounds(ctx);

  const std::vector<std::size_t> rpo = reverse_post_order(cfg);
  std::vector<std::size_t> rpo_index(blocks.size(),
                                     std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < rpo.size(); ++i) rpo_index[rpo[i]] = i;

  std::vector<std::size_t> header_loop(blocks.size(), prove::Context::kNoLoop);
  for (std::size_t li = 0; li < loops.size(); ++li) {
    header_loop[loops[li].header] = li;
  }

  // License pass: every retreating edge of the reachable CFG must be a back
  // edge into a natural loop whose trip count the prover bounded. Anything
  // else — an irreducible cycle, or a loop with no counted-guard shape —
  // has no static execution-count argument and gets a refusal.
  for (const std::size_t u : rpo) {
    for (const std::size_t leader : blocks[u].succs) {
      if (leader == cfg.exit_pc()) continue;
      const std::size_t v = cfg.block_of(leader);
      if (rpo_index[v] > rpo_index[u]) continue;  // forward edge
      const std::size_t li = header_loop[v];
      if (li == prove::Context::kNoLoop || !loops[li].contains(u)) {
        cert.unbounded.push_back(
            {blocks[v].begin,
             "irreducible cycle through pc " + std::to_string(blocks[v].begin) +
                 " (no natural-loop header dominates it)"});
      } else if (!bounds[li].bounded) {
        cert.unbounded.push_back(
            {blocks[v].begin,
             "loop at header pc " + std::to_string(blocks[v].begin) +
                 " carries no trip-count license"});
      }
    }
  }
  if (!cert.unbounded.empty()) {
    std::sort(cert.unbounded.begin(), cert.unbounded.end(),
              [](const UnboundedSite& a, const UnboundedSite& b) {
                return a.pc < b.pc;
              });
    cert.unbounded.erase(
        std::unique(cert.unbounded.begin(), cert.unbounded.end(),
                    [](const UnboundedSite& a, const UnboundedSite& b) {
                      return a.pc == b.pc;
                    }),
        cert.unbounded.end());
    return cert;
  }
  cert.bounded = true;

  // Execution-count pass, one sweep in reverse post-order. A non-header
  // block executes at most once per traversal of an incoming forward edge;
  // a header additionally multiplies by its loop's licensed trip count
  // (max_trips bounds header executions *per loop entry*, and the forward
  // inflow is exactly the entry count). All arithmetic saturates.
  const auto preds = cfg.predecessors();
  std::vector<std::uint64_t> count(blocks.size(), 0);
  const std::size_t entry_block = cfg.block_of(0);
  for (const std::size_t b : rpo) {
    std::uint64_t inflow = b == entry_block ? 1 : 0;
    for (const std::size_t p : preds[b]) {
      if (rpo_index[p] < rpo_index[b]) inflow = sat_add(inflow, count[p]);
    }
    const std::size_t li = header_loop[b];
    count[b] = li == prove::Context::kNoLoop
                   ? inflow
                   : sat_mul(inflow, static_cast<std::uint64_t>(
                                         bounds[li].max_trips));
  }

  // Engine entries: pc 0 plus every successor of a branch-terminated block.
  // Each execution of such a block retires its branch at most once, so the
  // block count bounds the dispatches it can cause at either target.
  std::map<std::size_t, std::uint64_t> dispatches;
  dispatches[0] = 1;
  for (const std::size_t b : rpo) {
    const check::BasicBlock& blk = blocks[b];
    if (!cms::is_branch(prog[blk.end - 1].op)) continue;
    for (const std::size_t leader : blk.succs) {
      if (leader == cfg.exit_pc()) continue;
      auto& n = dispatches[leader];
      n = sat_add(n, count[b]);
    }
  }

  // Price each entry once: interpreted, translated, native.
  const cms::Translator translator(costs.molecule, costs.translator);
  std::size_t total_molecules = 0;
  for (const auto& [pc, n] : dispatches) {
    EntryCost e;
    e.entry_pc = pc;
    e.max_dispatches = n;
    e.interp_cycles = interp_cost(prog, pc, costs.interpreter);
    const cms::Translation t = translator.translate(prog, pc);
    e.translate_cycles = translator.translation_cost(t.instr_count);
    e.native_cycles = t.native_cycles();
    e.molecules = t.molecules.size();
    total_molecules += e.molecules;
    cert.entries.push_back(e);
  }
  cert.eviction_free = total_molecules <= costs.cache_molecules;

  // Upper bounds. Interpret tier: every dispatch pays the interpreter.
  // Tier-2, eviction-free: the first min(n, threshold-1) dispatches are
  // interpreted, one translation is paid iff the threshold is reached, and
  // every later dispatch runs native out of the cache (monotone in n, so a
  // dispatch over-count never under-prices). Without the eviction-free
  // guarantee each dispatch is one of {interpret, translate+native, hit}
  // and the maximum of those prices every one of them.
  const std::uint64_t cap =
      costs.hot_threshold == 0 ? 0 : costs.hot_threshold - 1;
  for (const EntryCost& e : cert.entries) {
    cert.interpret.upper = sat_add(cert.interpret.upper,
                                   sat_mul(e.max_dispatches, e.interp_cycles));
    std::uint64_t ub;
    if (cert.eviction_free) {
      const std::uint64_t interpreted = std::min(e.max_dispatches, cap);
      ub = sat_mul(interpreted, e.interp_cycles);
      if (e.max_dispatches > interpreted) {
        ub = sat_add(ub, sat_add(e.translate_cycles,
                                 sat_mul(e.max_dispatches - interpreted,
                                         e.native_cycles)));
      }
    } else {
      ub = sat_mul(e.max_dispatches,
                   std::max(e.interp_cycles,
                            sat_add(e.translate_cycles, e.native_cycles)));
    }
    cert.tier2.upper = sat_add(cert.tier2.upper, ub);
  }

  // Lower bounds: any halting run's dispatch sequence is a walk from pc 0
  // to the exit in the engine-block graph, and every dispatch at entry e
  // costs at least its cheapest single execution — I(e) interpreted,
  // min(I(e), N(e)) once translation is possible. The cheapest walk is at
  // least the cheapest simple path (Dijkstra; node costs, exit free).
  const auto shortest = [&](bool tier2) {
    std::map<std::size_t, std::uint64_t> node_cost;
    for (const EntryCost& e : cert.entries) {
      node_cost[e.entry_pc] =
          tier2 ? std::min(e.interp_cycles, e.native_cycles) : e.interp_cycles;
    }
    const std::size_t exit = prog.size();
    std::map<std::size_t, std::uint64_t> dist;
    using Item = std::pair<std::uint64_t, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> q;
    const std::uint64_t d0 = node_cost.count(0) != 0 ? node_cost[0] : 0;
    dist[0] = d0;
    q.emplace(d0, 0);
    while (!q.empty()) {
      const auto [d, pc] = q.top();
      q.pop();
      if (dist.count(pc) != 0 && d > dist[pc]) continue;
      if (pc == exit) return d;
      for (const std::size_t s : engine_succs(prog, pc)) {
        const std::uint64_t step =
            s == exit || node_cost.count(s) == 0 ? 0 : node_cost[s];
        const std::uint64_t nd = sat_add(d, step);
        if (dist.count(s) == 0 || nd < dist[s]) {
          dist[s] = nd;
          q.emplace(nd, s);
        }
      }
    }
    return std::uint64_t{0};  // exit unreachable: trivially sound
  };
  cert.interpret.lower = shortest(false);
  cert.tier2.lower = shortest(true);

  // Tier-3 replays tier-2's accounting bit-identically (DESIGN.md §14), so
  // its certificate is tier-2's by contract, not by a separate argument.
  cert.tier3 = cert.tier2;
  return cert;
}

std::string Certificate::to_string() const {
  std::ostringstream os;
  if (!valid) {
    os << "invalid program: " << error;
    return os.str();
  }
  if (!bounded) {
    os << "unbounded:";
    for (const UnboundedSite& s : unbounded) {
      os << "\n  pc " << s.pc << ": " << s.reason;
    }
    return os.str();
  }
  os << "bounded (" << entries.size() << " entries, "
     << (eviction_free ? "eviction-free" : "eviction possible") << ")";
  os << "\n  interpret: [" << interpret.lower << ", " << interpret.upper
     << "] cycles";
  os << "\n  tier2:     [" << tier2.lower << ", " << tier2.upper << "] cycles";
  os << "\n  tier3:     [" << tier3.lower << ", " << tier3.upper
     << "] cycles (== tier2 by bit-identity)";
  return os.str();
}

Json Certificate::to_json() const {
  Json j = Json::object();
  j.set("valid", valid);
  if (!valid) {
    j.set("error", error);
    return j;
  }
  j.set("bounded", bounded);
  if (!bounded) {
    Json sites = Json::array();
    for (const UnboundedSite& s : unbounded) {
      Json site = Json::object();
      site.set("pc", s.pc).set("reason", s.reason);
      sites.push(std::move(site));
    }
    j.set("unbounded", std::move(sites));
    return j;
  }
  Json tiers = Json::object();
  for (const auto& [name, b] : {std::pair{"interpret", &interpret},
                                std::pair{"tier2", &tier2},
                                std::pair{"tier3", &tier3}}) {
    Json t = Json::object();
    t.set("lower", bound_json(b->lower)).set("upper", bound_json(b->upper));
    tiers.set(name, std::move(t));
  }
  j.set("eviction_free", eviction_free)
      .set("entries", entries.size())
      .set("tiers", std::move(tiers));
  return j;
}

}  // namespace bladed::wcet
