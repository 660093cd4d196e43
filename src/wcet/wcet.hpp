#pragma once

/// bladed::wcet — static cycle-bound certification for CMS programs
/// (DESIGN.md §15). Given a program and a cost model, `certify` computes
/// sound upper and lower bounds on the cycles a fresh MorphingEngine charges
/// for one run-to-halt, per execution tier:
///
///   - interpret:  every dispatch is interpreted (hot_threshold never hit),
///   - tier-2:     the shipped interpret → translate → native staging,
///   - tier-3:     identical to tier-2 by the JIT bit-identity contract
///                 (compiled regions replay tier-2 accounting exactly).
///
/// The argument composes the existing layers: `check`'s CFG / dominator /
/// natural-loop analyses give the loop nest, `prove/bounds`' trip-count
/// licenses (`LoopBound::max_trips`) cap every back edge, and the cms cost
/// model (dispatch + latency, translation cost, molecule schedule) prices
/// each dispatch. Programs with a cycle the trip-count prover cannot
/// license get an `unbounded` verdict at the offending header pc instead of
/// a bound — mirroring prove's refusal style: no license, no number.
///
/// Soundness contract: the bounds hold for a *fresh* engine (empty
/// translation cache, zeroed profile counts) running the given program to a
/// natural halt — retiring a halt or falling off the end — without
/// trapping and without hitting the block-execution budget. The 1000-
/// program fuzzer in tests/wcet/ checks `lower <= total_cycles <= upper`
/// against the real engine at every tier and opt level.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cms/engine.hpp"
#include "cms/isa.hpp"
#include "common/json.hpp"

namespace bladed::wcet {

enum class Tier : std::uint8_t { kInterpret, kTier2, kTier3 };

[[nodiscard]] const char* to_string(Tier t);

/// Closed cycle interval; `upper` saturates at uint64 max when a product of
/// trip counts overflows (still a sound upper bound — the engine's own
/// accounting is uint64).
struct TierBounds {
  std::uint64_t lower = 0;
  std::uint64_t upper = 0;
};

/// One refusal: a program point whose execution count has no static bound.
struct UnboundedSite {
  std::size_t pc = 0;  ///< leader pc of the offending loop header / block
  std::string reason;
};

/// Certified per-dispatch-entry facts. An *engine entry* is a pc the
/// morphing engine can dispatch at: pc 0 plus every branch successor
/// (taken targets and conditional fallthroughs). The engine's profile
/// counts, translation cache and JIT promotion are all keyed by these pcs,
/// so they are the unit both the bound summation and the JIT budget
/// derivation work in.
struct EntryCost {
  std::size_t entry_pc = 0;
  std::uint64_t max_dispatches = 0;   ///< certified bound on dispatches here
  std::uint64_t interp_cycles = 0;    ///< one interpreted execution
  std::uint64_t translate_cycles = 0; ///< one translation of the block
  std::uint64_t native_cycles = 0;    ///< one native (cached) execution
  std::size_t molecules = 0;          ///< translation footprint in molecules
};

/// Cost-model parameters; defaults match `cms_42x()` (the MorphingConfig
/// defaults). Use `from()` to certify against a specific engine config.
struct CostParams {
  cms::InterpreterCosts interpreter;
  cms::MoleculeLimits molecule;
  cms::TranslatorCosts translator;
  std::size_t cache_molecules = 1 << 16;
  std::uint64_t hot_threshold = 8;

  [[nodiscard]] static CostParams from(const cms::MorphingConfig& cfg);
};

struct Certificate {
  /// False when the program failed cms::validate — `error` says why and
  /// nothing else in the certificate is meaningful.
  bool valid = false;
  std::string error;

  /// True when every cycle carries a trip-count license; only then do the
  /// tier bounds below hold. When false, `unbounded` lists the refusals.
  bool bounded = false;
  std::vector<UnboundedSite> unbounded;

  TierBounds interpret;
  TierBounds tier2;
  TierBounds tier3;  ///< == tier2: the JIT tier is cycle-bit-identical

  /// Engine entries in ascending pc order (empty when not bounded).
  std::vector<EntryCost> entries;

  /// True when the summed molecule footprint of every entry fits the
  /// translation cache, so no run can evict: each hot entry pays exactly
  /// one translation. When false the tier-2 upper bound falls back to
  /// worst-case retranslation on every dispatch.
  bool eviction_free = true;

  [[nodiscard]] const TierBounds& for_tier(Tier t) const;
  /// Human-readable one-program summary (bladed-lint --wcet).
  [[nodiscard]] std::string to_string() const;
  /// JSON object; bladed-lint composes the bladed-wcet-v1 envelope around
  /// one object per corpus program. Bounds are exact integers, or the
  /// string "saturated" when a bound overflowed uint64.
  [[nodiscard]] Json to_json() const;
};

/// Certify `prog` on a machine with `mem_doubles` cells under `costs`.
/// Never throws: validation failures come back as `valid == false`.
[[nodiscard]] Certificate certify(const cms::Program& prog,
                                  std::size_t mem_doubles,
                                  const CostParams& costs = {});

}  // namespace bladed::wcet
