// Layer legs: timed calls into each module's public functions, run by the
// traced benchmark on the workload's own final state.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "dir/fingerprint.h"
#include "ting/delta_scan.h"
#include "ting/rtt_matrix.h"
#include "ting/sparse_matrix.h"
#include "util/time.h"

namespace perfbench {

struct StateLegs {
  /// The workload's final store and the relay set it was planned over.
  const ting::meas::SparseRttMatrix& store;
  const std::vector<ting::dir::Fingerprint>& nodes;
  /// Planning clock and options for the planner legs.
  ting::TimePoint now;
  ting::meas::DeltaPlanOptions plan;
  /// Directory (created here, must not exist) for the save/load and journal
  /// legs' files.
  std::string dir;
};

/// Stores are served on at most this many relays (the detour index is
/// O(n^3)).
constexpr std::size_t kServeLegRelays = 600;

/// The pairs of `m` among the `n` relays with the most measured pairs (ties
/// in `m.nodes()` order). A daemon's budgeted epochs measure pairs relay by
/// relay, so an arbitrary `n`-relay subset of its store may hold no pair.
ting::meas::RttMatrix best_covered_relays(const ting::meas::RttMatrix& m,
                                          std::size_t n);

/// Store, planner, journal-record and serve legs.
void run_state_legs(const StateLegs& legs, Result& r);

/// Kernel legs (crypto, cells, simnet) on fixed-size inputs from `seed`.
void kernel_legs(std::uint64_t seed, Result& r);

}  // namespace perfbench
