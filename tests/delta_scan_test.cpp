// Property tests for the consensus-delta planner: churn produces exactly
// the new/expired pairs with no duplicates, priority order holds (new pairs
// first, expired oldest-first), budgets cut from the back, the one-pass
// planner equals the brute-force census (reference_census.h) on random
// stores, and the ConsensusDeltaTracker reports joins/leaves correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "reference_census.h"
#include "ting/delta_scan.h"
#include "ting/rtt_matrix.h"
#include "util/rng.h"

namespace ting::meas {
namespace {

dir::Fingerprint fp(std::size_t i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%040zx", i);
  return dir::Fingerprint::from_hex(buf);
}

TimePoint at(std::int64_t s) { return TimePoint::from_ns(s * 1'000'000'000); }

std::vector<dir::Fingerprint> node_set(std::size_t n) {
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(fp(i));
  return nodes;
}

std::size_t all_pairs(std::size_t n) { return n * (n - 1) / 2; }

/// No pair appears twice in a plan, in either orientation.
void expect_no_duplicates(const DeltaPlan& plan) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const auto& [i, j] : plan.pairs) {
    EXPECT_NE(i, j);
    const auto key = std::minmax(i, j);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate pair (" << i << "," << j << ")";
  }
}

TEST(DeltaScanTest, EmptyMatrixPlansAllPairs) {
  const auto nodes = node_set(7);
  const DeltaPlan plan = plan_delta(RttMatrix{}, nodes, at(100));
  EXPECT_EQ(plan.pairs.size(), all_pairs(7));
  EXPECT_EQ(plan.new_pairs, all_pairs(7));
  EXPECT_EQ(plan.expired_pairs, 0u);
  EXPECT_EQ(plan.fresh_pairs, 0u);
  EXPECT_EQ(plan.dropped_over_budget, 0u);
  expect_no_duplicates(plan);
}

TEST(DeltaScanTest, FullyFreshMatrixPlansNothing) {
  const auto nodes = node_set(6);
  RttMatrix m;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      m.set(nodes[i], nodes[j], 10.0, at(95), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  EXPECT_TRUE(plan.pairs.empty());
  EXPECT_EQ(plan.fresh_pairs, all_pairs(6));
}

TEST(DeltaScanTest, ChurnYieldsExactlyNewAndExpiredPairs) {
  // Matrix covers nodes {0..4} freshly except: pair (1,2) is expired, and
  // node 5 just joined (all 5 of its pairs are new). Nothing else plans.
  const auto nodes = node_set(6);
  RttMatrix m;
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i + 1; j < 5; ++j)
      m.set(nodes[i], nodes[j], 10.0, (i == 1 && j == 2) ? at(10) : at(95), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  EXPECT_EQ(plan.new_pairs, 5u);
  EXPECT_EQ(plan.expired_pairs, 1u);
  EXPECT_EQ(plan.fresh_pairs, all_pairs(5) - 1);
  ASSERT_EQ(plan.pairs.size(), 6u);
  expect_no_duplicates(plan);
  // New pairs come first; the expired pair is last.
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_TRUE(plan.pairs[k].first == 5 || plan.pairs[k].second == 5);
  EXPECT_EQ(plan.pairs.back(), (std::pair<std::size_t, std::size_t>{1, 2}));
}

TEST(DeltaScanTest, ExpiredPairsPlannedOldestFirst) {
  const auto nodes = node_set(4);
  RttMatrix m;
  m.set(nodes[0], nodes[1], 1.0, at(30), 1);
  m.set(nodes[0], nodes[2], 1.0, at(10), 1);
  m.set(nodes[0], nodes[3], 1.0, at(20), 1);
  m.set(nodes[1], nodes[2], 1.0, at(95), 1);  // fresh
  m.set(nodes[1], nodes[3], 1.0, at(95), 1);  // fresh
  m.set(nodes[2], nodes[3], 1.0, at(95), 1);  // fresh
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  ASSERT_EQ(plan.pairs.size(), 3u);
  EXPECT_EQ(plan.pairs[0], (std::pair<std::size_t, std::size_t>{0, 2}));  // t=10
  EXPECT_EQ(plan.pairs[1], (std::pair<std::size_t, std::size_t>{0, 3}));  // t=20
  EXPECT_EQ(plan.pairs[2], (std::pair<std::size_t, std::size_t>{0, 1}));  // t=30
}

TEST(DeltaScanTest, BudgetKeepsNewPairsOverExpired) {
  // 3 new pairs (node 3 joined a 4-node set) + 3 expired; budget 4 must
  // keep all 3 new pairs and only the single oldest expired pair.
  const auto nodes = node_set(4);
  RttMatrix m;
  m.set(nodes[0], nodes[1], 1.0, at(30), 1);
  m.set(nodes[0], nodes[2], 1.0, at(10), 1);
  m.set(nodes[1], nodes[2], 1.0, at(20), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  opt.budget = 4;
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  // new/expired count the census (pre-budget); the cut shows up in
  // dropped_over_budget and the worklist length.
  EXPECT_EQ(plan.new_pairs, 3u);
  EXPECT_EQ(plan.expired_pairs, 3u);
  EXPECT_EQ(plan.dropped_over_budget, 2u);
  ASSERT_EQ(plan.pairs.size(), 4u);
  expect_no_duplicates(plan);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_TRUE(plan.pairs[k].first == 3 || plan.pairs[k].second == 3);
  EXPECT_EQ(plan.pairs[3], (std::pair<std::size_t, std::size_t>{0, 2}));  // t=10
}

TEST(DeltaScanTest, BudgetTruncatesNewPairs) {
  const auto nodes = node_set(6);
  DeltaPlanOptions opt;
  opt.budget = 4;
  const DeltaPlan plan = plan_delta(RttMatrix{}, nodes, at(1), opt);
  EXPECT_EQ(plan.pairs.size(), 4u);
  EXPECT_EQ(plan.new_pairs, all_pairs(6));  // census, not kept
  EXPECT_EQ(plan.dropped_over_budget, all_pairs(6) - 4);
  expect_no_duplicates(plan);
}

TEST(DeltaScanTest, BudgetedExpiredSelectionMatchesFullSort) {
  // The bounded-heap cut must select exactly the same pairs, in the same
  // order, as sorting every expired candidate and taking the oldest K.
  const auto nodes = node_set(10);
  RttMatrix m;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      m.set(nodes[i], nodes[j], 1.0, at((t = (t * 31 + 17) % 80)), 1);
  DeltaPlanOptions unbounded;
  unbounded.ttl = Duration::seconds(10);
  DeltaPlanOptions bounded = unbounded;
  bounded.budget = 11;
  const DeltaPlan full = plan_delta(m, nodes, at(100), unbounded);
  const DeltaPlan cut = plan_delta(m, nodes, at(100), bounded);
  ASSERT_EQ(cut.pairs.size(), 11u);
  EXPECT_EQ(cut.dropped_over_budget, full.pairs.size() - 11);
  for (std::size_t k = 0; k < 11; ++k) EXPECT_EQ(cut.pairs[k], full.pairs[k]);
}

TEST(DeltaScanTest, PlanIsPureFunctionOfInputs) {
  const auto nodes = node_set(8);
  RttMatrix m;
  m.set(nodes[2], nodes[5], 1.0, at(3), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(50);
  opt.budget = 9;
  const DeltaPlan p1 = plan_delta(m, nodes, at(100), opt);
  const DeltaPlan p2 = plan_delta(m, nodes, at(100), opt);
  EXPECT_EQ(p1.pairs, p2.pairs);
}

/// Identical pairs and identical census counters.
void expect_same_plan(const DeltaPlan& got, const DeltaPlan& want,
                      const std::string& label) {
  EXPECT_EQ(got.pairs, want.pairs) << label;
  EXPECT_EQ(got.new_pairs, want.new_pairs) << label;
  EXPECT_EQ(got.expired_pairs, want.expired_pairs) << label;
  EXPECT_EQ(got.fresh_pairs, want.fresh_pairs) << label;
  EXPECT_EQ(got.dropped_over_budget, want.dropped_over_budget) << label;
}

TEST(DeltaScanTest, MatchesReferenceCensusOnRandomStores) {
  // The one-pass planner against the brute-force census, across bitmap
  // word boundaries (63/64/65/129 relays) and the degenerate sizes. Member
  // order is shuffled, the store also holds pairs touching non-members,
  // stamps come from a handful of values so expired candidates tie, and
  // the budgets hit 0 (unlimited), 1, exactly the missing count (no room
  // left for expired pairs) and points inside the expired list.
  Rng rng(4242);
  for (const std::size_t n : std::initializer_list<std::size_t>{
           0, 1, 2, 63, 64, 65, 129}) {
    for (const double fill : {0.0, 0.3, 0.9, 1.0}) {
      // Members are fp(0..n-1); fp(n..n+4) are relays that left.
      const std::size_t universe = n + 5;
      std::vector<dir::Fingerprint> nodes = node_set(n);
      for (std::size_t k = nodes.size(); k > 1; --k)
        std::swap(nodes[k - 1], nodes[rng.next_below(k)]);
      RttMatrix m;
      for (std::size_t a = 0; a < universe; ++a)
        for (std::size_t b = a + 1; b < universe; ++b)
          if (rng.uniform() < fill)
            m.set(fp(a), fp(b), 1.0, at(10 * rng.uniform_int(1, 6)), 1);
      DeltaPlanOptions opt;
      opt.ttl = Duration::seconds(25);
      const TimePoint now = at(70);
      const std::size_t missing = reference_census(m, nodes, now, opt).new_pairs;
      for (const std::size_t budget :
           {std::size_t{0}, std::size_t{1}, missing, missing + 1, missing + 7,
            missing + all_pairs(n) / 3}) {
        opt.budget = budget;
        const std::string label = "n=" + std::to_string(n) +
                                  " fill=" + std::to_string(fill) +
                                  " budget=" + std::to_string(budget);
        const DeltaPlan got = plan_delta(m, nodes, now, opt);
        expect_same_plan(got, reference_census(m, nodes, now, opt), label);
        expect_no_duplicates(got);
      }
    }
  }
}

TEST(DeltaScanTest, IncrementalMatchesFullAcrossChurnEpochs) {
  // A 12-epoch randomized daemon life: membership churns (joins, leaves,
  // rejoins) and is enumerated in a fresh random order every epoch, each
  // epoch absorbs only a prefix of its plan (failures and budget cuts leave
  // pairs missing), stamps age past the TTL, a relay is sometimes erased
  // from the store, and budgets alternate between unlimited and tight. At
  // every epoch plan_delta and the IncrementalDeltaPlanner name must both
  // equal the brute-force census.
  Rng rng(1234);
  const std::size_t universe = 16;
  std::vector<bool> member(universe, false);
  for (std::size_t i = 0; i < 10; ++i) member[i] = true;
  RttMatrix m;
  const IncrementalDeltaPlanner planner;
  ConsensusDeltaTracker tracker;
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(30);
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::vector<dir::Fingerprint> nodes;
    for (std::size_t i = 0; i < universe; ++i)
      if (member[i]) nodes.push_back(fp(i));
    for (std::size_t k = nodes.size(); k > 1; --k)
      std::swap(nodes[k - 1], nodes[rng.next_below(k)]);
    const auto delta = tracker.observe(nodes);
    opt.budget = (epoch % 3 == 0)
                     ? 0
                     : static_cast<std::size_t>(rng.uniform_int(1, 25));
    const TimePoint now = at(100 + epoch * 10);
    const DeltaPlan want = reference_census(m, nodes, now, opt);
    const std::string label = "epoch " + std::to_string(epoch);
    expect_same_plan(plan_delta(m, nodes, now, opt), want, label);
    expect_same_plan(
        planner.plan_delta_incremental(m, nodes, delta.joined, now, opt), want,
        label + " (forwarder)");
    // Absorb a random prefix of the plan — the daemon stamps at the epoch
    // clock, and an interrupted epoch leaves the tail unmeasured.
    const std::size_t done =
        want.pairs.empty()
            ? 0
            : static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(want.pairs.size())));
    for (std::size_t k = 0; k < done; ++k)
      m.set(nodes[want.pairs[k].first], nodes[want.pairs[k].second], 5.0, now,
            1);
    if (epoch % 5 == 4) m.erase_relay(fp(rng.next_below(universe)));
    // Flip a couple of memberships (leavers keep their matrix entries).
    for (int c = 0; c < 2; ++c) {
      const auto v =
          static_cast<std::size_t>(rng.uniform_int(0, universe - 1));
      member[v] = !member[v];
    }
    if (std::count(member.begin(), member.end(), true) < 2)
      member[0] = member[1] = true;
  }
}

TEST(DeltaScanTest, EqualStampBudgetCutIsDeterministicPrefix) {
  // The daemon restamps a whole epoch with one clock value, so most expired
  // candidates tie on measured_at. The tie must break on the pair index:
  // the budgeted plan is exactly the unbudgeted plan's prefix, on both the
  // full-sort path and the bounded-heap path, and the census agrees.
  const auto nodes = node_set(9);
  RttMatrix m;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      m.set(nodes[i], nodes[j], 1.0, at(5), 1);
  DeltaPlanOptions unbounded;
  unbounded.ttl = Duration::seconds(10);
  DeltaPlanOptions bounded = unbounded;
  bounded.budget = 7;
  const DeltaPlan full = plan_delta(m, nodes, at(100), unbounded);
  const DeltaPlan cut = plan_delta(m, nodes, at(100), bounded);
  ASSERT_EQ(full.pairs.size(), all_pairs(9));
  ASSERT_EQ(cut.pairs.size(), 7u);
  for (std::size_t k = 0; k < 7; ++k) EXPECT_EQ(cut.pairs[k], full.pairs[k]);
  expect_same_plan(cut, reference_census(m, nodes, at(100), bounded),
                   "equal-stamp budgeted");
}

TEST(DeltaScanTest, ExpiredBeforeIsStrictTotalOrder) {
  const ExpiredCandidate a{1, 2, at(10)};
  const ExpiredCandidate b{0, 3, at(20)};
  const ExpiredCandidate c{1, 3, at(10)};
  const ExpiredCandidate d{1, 2, at(10)};
  EXPECT_TRUE(expired_before(a, b));   // older stamp wins
  EXPECT_FALSE(expired_before(b, a));
  EXPECT_TRUE(expired_before(a, c));   // equal stamps: index pair decides
  EXPECT_FALSE(expired_before(c, a));
  EXPECT_FALSE(expired_before(a, d));  // irreflexive on equals
}

TEST(DeltaScanTest, IncrementalFreshPlannerRederivesCrashedEpoch) {
  // A crash-resumed daemon process plans against the persisted matrix
  // alone. The plan holds no state across calls, so a planner that ran
  // earlier epochs, a brand-new one and a stale-journal replay of the same
  // epoch all re-derive exactly the worklist the crashed process was
  // running.
  const auto nodes = node_set(10);
  RttMatrix m;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      t = (t * 31 + 17) % 90;
      if (t % 3 == 0) continue;  // leave holes (missing pairs)
      m.set(nodes[i], nodes[j], 1.0, at(t), 1);
    }
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(25);
  opt.budget = 13;
  const IncrementalDeltaPlanner survivor;
  (void)survivor.plan_delta_incremental(m, nodes, {}, at(60), opt);
  const DeltaPlan replanned =
      survivor.plan_delta_incremental(m, nodes, {}, at(100), opt);
  const IncrementalDeltaPlanner restarted;
  const DeltaPlan resumed =
      restarted.plan_delta_incremental(m, nodes, {}, at(100), opt);
  const DeltaPlan want = reference_census(m, nodes, at(100), opt);
  expect_same_plan(replanned, want, "replan");
  expect_same_plan(resumed, want, "fresh-planner resume");
  expect_same_plan(plan_delta(m, nodes, at(100), opt), want, "journal replay");
}

TEST(DeltaScanTest, DuplicateRelayIsRejected) {
  // A relay listed twice would make its self-pair a "missing" candidate.
  EXPECT_THROW((void)plan_delta(RttMatrix{}, {fp(1), fp(2), fp(1)}, at(1)),
               CheckError);
}

TEST(DeltaScanTest, TrackerReportsJoinsAndLeaves) {
  ConsensusDeltaTracker tracker;
  const auto first = tracker.observe({fp(1), fp(2), fp(3)});
  EXPECT_EQ(first.joined.size(), 3u);
  EXPECT_TRUE(first.left.empty());

  const auto delta = tracker.observe({fp(2), fp(3), fp(4), fp(5)});
  ASSERT_EQ(delta.joined.size(), 2u);
  EXPECT_EQ(delta.joined[0], fp(4));
  EXPECT_EQ(delta.joined[1], fp(5));
  ASSERT_EQ(delta.left.size(), 1u);
  EXPECT_EQ(delta.left[0], fp(1));
  EXPECT_EQ(tracker.current().size(), 4u);

  const auto none = tracker.observe({fp(2), fp(3), fp(4), fp(5)});
  EXPECT_TRUE(none.joined.empty());
  EXPECT_TRUE(none.left.empty());
}

}  // namespace
}  // namespace ting::meas
