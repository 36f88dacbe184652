#include "ting/delta_scan.h"

#include <algorithm>
#include <bit>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "util/assert.h"

namespace ting::meas {

bool expired_before(const ExpiredCandidate& l, const ExpiredCandidate& r) {
  return std::tie(l.measured_at, l.i, l.j) < std::tie(r.measured_at, r.i, r.j);
}

namespace {

/// Append the expired candidates to plan.pairs under whatever budget room is
/// left after the new pairs, oldest first per expired_before; the overflow
/// is counted into dropped_over_budget.
void emit_expired(DeltaPlan& plan, std::vector<ExpiredCandidate> expired,
                  std::size_t budget) {
  plan.expired_pairs += expired.size();

  // Budget remaining after the never-measured pairs (which always win: a
  // missing pair costs coverage, a stale one only accuracy).
  std::size_t room = expired.size();
  if (budget != 0) room = budget - std::min(budget, plan.pairs.size());

  if (room >= expired.size()) {
    // Everything fits — just order oldest-first.
    std::sort(expired.begin(), expired.end(), expired_before);
  } else {
    // Freshness heap: keep the `room` oldest candidates in a bounded
    // max-heap (top = freshest of the kept), O(n log room) instead of
    // sorting every stale pair of a large consensus.
    auto fresher = [](const ExpiredCandidate& l, const ExpiredCandidate& r) {
      // max-heap on "older" puts the freshest kept on top
      return expired_before(l, r);
    };
    std::priority_queue<ExpiredCandidate, std::vector<ExpiredCandidate>,
                        decltype(fresher)>
        keep(fresher);
    for (const ExpiredCandidate& c : expired) {
      if (keep.size() < room) {
        keep.push(c);
      } else if (room > 0 && expired_before(c, keep.top())) {
        keep.pop();
        keep.push(c);
      }
    }
    plan.dropped_over_budget += expired.size() - keep.size();
    expired.clear();
    while (!keep.empty()) {
      expired.push_back(keep.top());
      keep.pop();
    }
    std::reverse(expired.begin(), expired.end());  // heap drains freshest-first
  }
  for (const ExpiredCandidate& c : expired) plan.pairs.emplace_back(c.i, c.j);
}

}  // namespace

DeltaPlan plan_delta(const RttMatrix& matrix,
                     const std::vector<dir::Fingerprint>& nodes, TimePoint now,
                     const DeltaPlanOptions& options) {
  const std::size_t n = nodes.size();
  std::unordered_map<dir::Fingerprint, std::size_t> index_of;
  index_of.reserve(n);
  for (std::size_t k = 0; k < n; ++k)
    TING_CHECK_MSG(index_of.emplace(nodes[k], k).second,
                   "plan_delta: relay listed twice in the node set");

  // Row i holds the pairs (i, j > i); bit j is set once the store holds
  // that pair. Entries touching a non-member are skipped.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> stored(n * words, 0);
  DeltaPlan plan;
  std::vector<ExpiredCandidate> expired;
  matrix.for_each([&](const dir::Fingerprint& a, const dir::Fingerprint& b,
                      const RttMatrix::Entry& e) {
    const auto ia = index_of.find(a);
    if (ia == index_of.end()) return;
    const auto ib = index_of.find(b);
    if (ib == index_of.end()) return;
    const std::size_t i = std::min(ia->second, ib->second);
    const std::size_t j = std::max(ia->second, ib->second);
    stored[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
    if (now - e.measured_at <= options.ttl)
      ++plan.fresh_pairs;
    else
      expired.push_back(ExpiredCandidate{i, j, e.measured_at});
  });

  // Every member pair is exactly one of missing / expired / fresh.
  plan.new_pairs = n * (n - 1) / 2 - plan.fresh_pairs - expired.size();
  const std::size_t emit = options.budget == 0
                               ? plan.new_pairs
                               : std::min(plan.new_pairs, options.budget);
  plan.dropped_over_budget = plan.new_pairs - emit;
  plan.pairs.reserve(emit);
  for (std::size_t i = 0; i + 1 < n && plan.pairs.size() < emit; ++i) {
    const std::uint64_t* row = stored.data() + i * words;
    for (std::size_t w = (i + 1) / 64; w < words; ++w) {
      std::uint64_t missing = ~row[w];
      if (w == (i + 1) / 64) missing &= ~std::uint64_t{0} << ((i + 1) % 64);
      if (w == words - 1 && n % 64 != 0)
        missing &= ~(~std::uint64_t{0} << (n % 64));
      for (; missing != 0 && plan.pairs.size() < emit; missing &= missing - 1)
        plan.pairs.emplace_back(i, w * 64 + std::countr_zero(missing));
    }
  }

  emit_expired(plan, std::move(expired), options.budget);
  return plan;
}

ConsensusDeltaTracker::Delta ConsensusDeltaTracker::observe(
    const std::vector<dir::Fingerprint>& nodes) {
  const std::set<dir::Fingerprint> next(nodes.begin(), nodes.end());
  Delta d;
  for (const dir::Fingerprint& fp : next)
    if (!current_.contains(fp)) d.joined.push_back(fp);
  for (const dir::Fingerprint& fp : current_)
    if (!next.contains(fp)) d.left.push_back(fp);
  current_ = next;
  return d;
}

}  // namespace ting::meas
