// The brute-force delta-plan census: probe every pair of `nodes` in (i, j)
// order, then sort every expired candidate and cut the list to the budget.
// It is the O(n²) loop plan_delta used to run, kept as the oracle the
// one-pass planner must match pair for pair and counter for counter
// (delta_scan_test, daemon_test) and the baseline bench/daemon_bench times
// it against.
#pragma once

#include <algorithm>
#include <tuple>
#include <vector>

#include "ting/delta_scan.h"
#include "ting/rtt_matrix.h"

namespace ting::meas {

inline DeltaPlan reference_census(const RttMatrix& matrix,
                                  const std::vector<dir::Fingerprint>& nodes,
                                  TimePoint now,
                                  const DeltaPlanOptions& options = {}) {
  DeltaPlan plan;
  std::vector<ExpiredCandidate> expired;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const RttMatrix::Entry* e = matrix.entry(nodes[i], nodes[j]);
      if (e == nullptr) {
        ++plan.new_pairs;
        if (options.budget == 0 || plan.pairs.size() < options.budget)
          plan.pairs.emplace_back(i, j);
        else
          ++plan.dropped_over_budget;
      } else if (now - e->measured_at <= options.ttl) {
        ++plan.fresh_pairs;
      } else {
        expired.push_back(ExpiredCandidate{i, j, e->measured_at});
      }
    }
  }
  // Oldest first, equal stamps by index pair: spelled out here rather
  // than borrowed from expired_before, so the oracle checks that too.
  std::sort(expired.begin(), expired.end(),
            [](const ExpiredCandidate& l, const ExpiredCandidate& r) {
              return std::tie(l.measured_at, l.i, l.j) <
                     std::tie(r.measured_at, r.i, r.j);
            });
  plan.expired_pairs = expired.size();
  std::size_t room = expired.size();
  if (options.budget != 0)
    room = options.budget - std::min(options.budget, plan.pairs.size());
  const std::size_t keep = std::min(room, expired.size());
  plan.dropped_over_budget += expired.size() - keep;
  for (std::size_t k = 0; k < keep; ++k)
    plan.pairs.emplace_back(expired[k].i, expired[k].j);
  return plan;
}

}  // namespace ting::meas
