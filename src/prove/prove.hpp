#pragma once

/// `bladed::prove` — whole-program alias & memory-safety analysis over CMS
/// IR (DESIGN.md §13). Entry points:
///
///   prove_program    — run the full stack (symbolic addressing, alias
///                      verdicts, in-bounds proofs, region licenses) and
///                      return the structured result
///   to_json          — serialize a result as a bladed-prove-v1 JSON report
///   license_translation — the per-translation query the engine gate asks:
///                      is every access in [begin, end) proven in-bounds?
///   engine_prover    — a cms::RegionProver backed by a per-program
///                      analysis cache, for MorphingConfig::prover
///
/// The analysis is *sound, not complete*: "proven" accesses never trap at
/// run time (the fuzz cross-check in tests/prove enforces exactly this
/// against interpreter traces), while safe-but-unproven accesses simply
/// stay unlicensed.

#include <cstddef>
#include <string>
#include <vector>

#include "cms/engine.hpp"
#include "cms/isa.hpp"
#include "prove/alias.hpp"
#include "prove/bounds.hpp"
#include "prove/region.hpp"

namespace bladed::prove {

struct ProveResult {
  bool valid = false;   ///< program passed structural validation
  std::string error;    ///< validation failure message when !valid
  std::size_t mem_doubles = 0;

  std::vector<AccessProof> accesses;
  std::vector<AliasFact> aliases;
  std::vector<RegionLicense> regions;

  std::size_t access_count = 0;
  std::size_t proven_count = 0;
  std::size_t licensed_region_count = 0;
  /// Fraction of memory accesses carrying a proof (1.0 when there are none).
  double proven_fraction = 1.0;
  /// Fraction of natural-loop instructions inside licensed regions — the
  /// "hot cycles covered" precision stat (1.0 when the program is loop-free).
  double hot_coverage = 1.0;
};

[[nodiscard]] ProveResult prove_program(const cms::Program& prog,
                                        std::size_t mem_doubles);

/// bladed-prove-v1 JSON report for one program, serialized through
/// common/json like every other report the repo emits.
[[nodiscard]] std::string to_json(const ProveResult& result,
                                  const std::string& name);

/// True when every memory access in the pc range [begin, end) carries an
/// in-bounds proof under whole-program analysis (an invalid program or an
/// out-of-range span refuses). On refusal `why` (optional) explains.
[[nodiscard]] bool license_translation(const cms::Program& prog,
                                       std::size_t begin, std::size_t end,
                                       std::size_t mem_doubles,
                                       std::string* why);

/// RegionProver for MorphingConfig::prover: license_translation behind a
/// cache keyed on program content + memory size, so the per-translation
/// gate re-analyzes each distinct program once, not once per hot block.
[[nodiscard]] cms::RegionProver engine_prover();

}  // namespace bladed::prove
