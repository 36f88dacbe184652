// Tests for the sharded scan engine: the merged RttMatrix must be
// bit-identical (as CSV bytes) across shard counts and against the
// non-sharded ParallelScanner driven in deterministic mode, and the merged
// ScanReport counters must add up. Kept small (8 nodes, few samples) so the
// whole binary stays in the smoke label and runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "scenario/shard_world.h"
#include "ting/half_circuit_cache.h"
#include "ting/scheduler.h"
#include "ting/sharded_scan.h"

namespace ting::meas {
namespace {

scenario::ShardWorldOptions small_world(std::uint64_t seed) {
  scenario::ShardWorldOptions o;
  o.relays = 10;
  o.scan_nodes = 8;
  o.testbed.seed = seed;
  o.testbed.differential_fraction = 0;
  o.ting.samples = 10;
  return o;
}

ShardedScanOptions sharded(std::size_t shards, std::uint64_t pair_seed) {
  ShardedScanOptions so;
  so.shards = shards;
  so.pair_seed = pair_seed;
  return so;
}

TEST(ShardedScanTest, BitIdenticalAcrossShardCounts) {
  const scenario::ShardWorldOptions wo = small_world(41);
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);
  ASSERT_EQ(nodes.size(), 8u);

  std::string csv1, csv4;
  {
    RttMatrix m;
    ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
    const ScanReport r = scanner.scan(nodes, m, sharded(1, 7));
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.measured, 28u);
    csv1 = m.to_csv();
  }
  {
    RttMatrix m;
    ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
    const ScanReport r = scanner.scan(nodes, m, sharded(4, 7));
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.measured, 28u);
    // Four shards really do run at once.
    EXPECT_EQ(r.max_in_flight, 4u);
    EXPECT_EQ(r.max_per_relay_in_flight, 1u);
    csv4 = m.to_csv();
  }
  EXPECT_EQ(csv1, csv4);
}

TEST(ShardedScanTest, MatchesNonShardedDeterministicScanner) {
  const scenario::ShardWorldOptions wo = small_world(41);
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);

  // The non-sharded path: one world, one ParallelScanner, deterministic
  // per-pair reseeding wired up by hand.
  scenario::Testbed tb = scenario::live_tor(wo.relays, wo.testbed);
  TingMeasurer measurer(tb.ting(), wo.ting);
  RttMatrix plain;
  ParallelScanner scanner({&measurer}, plain);
  ScanOptions po;
  po.pair_seed = 7;
  po.reseed_world = [&tb](std::uint64_t s) { tb.reseed_stochastics(s); };
  const ScanReport r = scanner.scan(nodes, po);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.measured, 28u);

  RttMatrix merged;
  ShardedScanner sharded_scanner(scenario::make_testbed_shard_factory(wo));
  const ScanReport sr = sharded_scanner.scan(nodes, merged, sharded(3, 7));
  EXPECT_EQ(sr.failed, 0u);

  EXPECT_EQ(plain.to_csv(), merged.to_csv());
}

TEST(ShardedScanTest, MergedReportCountersAddUp) {
  const scenario::ShardWorldOptions wo = small_world(43);
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);

  RttMatrix m;
  ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
  std::size_t progress_calls = 0;
  std::size_t last_done = 0;
  const ScanReport r = scanner.scan(
      nodes, m, sharded(3, 11),
      [&](std::size_t done, std::size_t total, const PairResult&) {
        ++progress_calls;
        EXPECT_LE(done, total);
        last_done = std::max(last_done, done);
      });

  EXPECT_EQ(r.pairs_total, 28u);
  EXPECT_EQ(r.measured + r.from_cache + r.failed, 28u);
  EXPECT_EQ(r.failed,
            r.failed_transient + r.failed_permanent + r.failed_churned);
  EXPECT_EQ(progress_calls, 28u);
  EXPECT_EQ(last_done, 28u);
  EXPECT_EQ(m.size(), r.measured);
  ASSERT_FALSE(r.retry_histogram.empty());
  std::size_t hist_sum = 0;
  for (const std::size_t h : r.retry_histogram) hist_sum += h;
  EXPECT_EQ(hist_sum, r.measured + r.failed);
  EXPECT_GT(r.virtual_time.sec(), 0.0);
}

TEST(ShardedScanTest, BitIdenticalAcrossShardCountsWithOptimizations) {
  // Half-circuit memoization + adaptive early-stop must not perturb the
  // deterministic guarantee: with per-half world reseeds, a memoized R_Cx
  // equals the value a fresh probe would measure, so the merged matrix (and
  // the merged half-circuit cache) stay bit-identical for any W.
  scenario::ShardWorldOptions wo = small_world(47);
  wo.ting.adaptive_samples = true;
  wo.ting.samples = 40;
  // Aggressive stop rule so the 40-sample budget early-stops (the
  // conservative defaults only bite near the full 200 budget).
  wo.ting.min_samples = 10;
  wo.ting.plateau_samples = 10;
  wo.ting.epsilon_ms = 0.05;
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);

  std::string csv1, csv3, halves1, halves3;
  std::size_t built1 = 0, built3 = 0;
  {
    RttMatrix m;
    HalfCircuitCache halves;
    ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
    ShardedScanOptions so = sharded(1, 7);
    so.half_cache = &halves;
    const ScanReport r = scanner.scan(nodes, m, so);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.half_cache_hits, 0u);
    EXPECT_GT(r.samples_saved, 0u);
    // With one shard every relay's half is memoized after its first pair:
    // 8 half measurements + 28 C_xy builds, not 3 * 28.
    EXPECT_EQ(r.circuits_built, 28u + 8u);
    csv1 = m.to_csv();
    halves1 = halves.to_csv();
    built1 = r.circuits_built;
  }
  {
    RttMatrix m;
    HalfCircuitCache halves;
    ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
    ShardedScanOptions so = sharded(3, 7);
    so.half_cache = &halves;
    const ScanReport r = scanner.scan(nodes, m, so);
    EXPECT_EQ(r.failed, 0u);
    csv3 = m.to_csv();
    halves3 = halves.to_csv();
    built3 = r.circuits_built;
  }
  EXPECT_EQ(csv1, csv3);
  EXPECT_EQ(halves1, halves3);
  // Shards each warm a private cache copy, so more shards build more half
  // circuits — but deterministic values make the merged artifacts agree.
  EXPECT_GE(built3, built1);
}

TEST(ShardedScanTest, MergedCountersIncludeOptimizationStats) {
  scenario::ShardWorldOptions wo = small_world(48);
  wo.ting.adaptive_samples = true;
  wo.ting.samples = 40;
  wo.ting.min_samples = 10;
  wo.ting.plateau_samples = 10;
  wo.ting.epsilon_ms = 0.05;
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);

  RttMatrix m;
  HalfCircuitCache halves;
  ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
  ShardedScanOptions so = sharded(2, 9);
  so.half_cache = &halves;
  const ScanReport r = scanner.scan(nodes, m, so);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.measured, 28u);
  // Every measured pair builds at least C_xy; memoization keeps the total
  // well under the cold 3-per-pair.
  EXPECT_GE(r.circuits_built, 28u);
  EXPECT_LT(r.circuits_built, 3u * 28u);
  EXPECT_GT(r.half_cache_hits, 0u);
  EXPECT_GT(r.samples_saved, 0u);
  // The merged cache holds one entry per (apparatus, relay); shard worlds
  // are clones sharing one w fingerprint, so that is one entry per relay.
  EXPECT_EQ(halves.size(), nodes.size());
}

TEST(ShardedScanTest, PairReseedIsCommutative) {
  const scenario::ShardWorldOptions wo = small_world(41);
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);
  EXPECT_EQ(pair_reseed(9, nodes[0], nodes[1]),
            pair_reseed(9, nodes[1], nodes[0]));
  EXPECT_NE(pair_reseed(9, nodes[0], nodes[1]),
            pair_reseed(9, nodes[0], nodes[2]));
  EXPECT_NE(pair_reseed(9, nodes[0], nodes[1]),
            pair_reseed(10, nodes[0], nodes[1]));
}

TEST(ShardedScanTest, ScanPairsSubsetMatchesFullScanEntries) {
  // The daemon feeds explicit worklists through scan_pairs(); a subset
  // scan must reproduce exactly the full scan's per-pair estimates (each
  // estimate is a pure function of the pair, never of the worklist).
  const scenario::ShardWorldOptions wo = small_world(41);
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);

  RttMatrix full;
  {
    ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
    scanner.scan(nodes, full, sharded(2, 7));
  }

  const ParallelScanner::PairList subset = {{0, 1}, {2, 5}, {6, 7}, {3, 4}};
  RttMatrix m;
  ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
  const ScanReport r = scanner.scan_pairs(nodes, subset, m, sharded(2, 7));
  EXPECT_EQ(r.pairs_total, subset.size());
  EXPECT_EQ(r.measured, subset.size());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(m.size(), subset.size());
  for (const auto& [i, j] : subset) {
    ASSERT_TRUE(m.rtt(nodes[i], nodes[j]).has_value());
    EXPECT_EQ(*m.rtt(nodes[i], nodes[j]), *full.rtt(nodes[i], nodes[j]));
  }
}

TEST(ShardedScanTest, StaleSeedsAreRemeasuredAtEveryShardCount) {
  // Every shard starts from a copy of the caller's matrix. Only each
  // shard's own slice may flow back: a later shard's stale copy of a pair
  // must never overwrite what the shard owning that pair just remeasured.
  const scenario::ShardWorldOptions wo = small_world(41);
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);
  std::string reference;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    RttMatrix m;
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (std::size_t j = i + 1; j < nodes.size(); ++j)
        m.set(nodes[i], nodes[j], 999.0);
    ShardedScanOptions so = sharded(shards, 7);
    so.max_age = Duration{};  // every seeded entry is stale
    ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
    const ScanReport r = scanner.scan(nodes, m, so);
    EXPECT_EQ(r.measured, 28u) << "W=" << shards;
    EXPECT_EQ(r.from_cache, 0u) << "W=" << shards;
    ASSERT_EQ(m.size(), 28u) << "W=" << shards;
    std::size_t stale = 0;
    for (const double v : m.values()) stale += v == 999.0 ? 1 : 0;
    EXPECT_EQ(stale, 0u) << "W=" << shards;
    if (reference.empty()) reference = m.to_csv();
    EXPECT_EQ(m.to_csv(), reference) << "W=" << shards;
  }
}

TEST(ShardedScanTest, ShardExceptionIsRethrownAfterJoin) {
  ShardedScanner scanner([](std::size_t shard) -> std::unique_ptr<ShardWorld> {
    if (shard == 1) throw std::runtime_error("world build failed");
    return std::make_unique<scenario::TestbedShardWorld>(
        small_world(41), scenario::shard_topology(small_world(41)));
  });
  const std::vector<dir::Fingerprint> nodes =
      scenario::shard_scan_nodes(small_world(41));
  RttMatrix m;
  EXPECT_THROW(scanner.scan(nodes, m, sharded(2, 7)), std::runtime_error);
}

}  // namespace
}  // namespace ting::meas
