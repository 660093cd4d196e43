#pragma once

/// Internal building blocks of parallel IS, shared between run_parallel_is
/// (npb/parallel.cpp) and the checkpointed run_parallel_is_ft
/// (npb/parallel_ft.cpp). Not a public API.

#include <cstdint>
#include <vector>

#include "npb/parallel.hpp"

namespace bladed::simnet {
class Comm;
}

namespace bladed::npb::detail {

/// One IS ranking iteration on this rank: histogram `keys` into `counts`
/// (one slot per bucket), allgather every rank's histogram, and write each
/// key's global rank into `rank_of` (sized like `keys`). Keys of equal value
/// rank in (rank, position) order, so the result is a stable global sort.
void rank_keys(simnet::Comm& comm, const std::vector<std::uint32_t>& keys,
               std::vector<std::uint32_t>& counts,
               std::vector<std::uint32_t>& rank_of);

/// Verify a finished ranking outside the simulation: scatter every rank's
/// keys by their global ranks and set `res`'s ranks_are_permutation,
/// globally_sorted and rank_checksum.
void verify_ranking(const std::vector<std::vector<std::uint32_t>>& keys,
                    const std::vector<std::vector<std::uint32_t>>& ranks,
                    ParallelIsResult& res);

}  // namespace bladed::npb::detail
