// Golden digests of the shared-topology scan and daemon artifacts — merged
// matrix CSV, merged half-circuit cache CSV, and the daemon's on-disk
// matrix — with a fault plan active. The digests were taken while the
// legacy clone-per-shard world path (every shard re-deriving the topology
// from the seed) still existed, from runs where both construction paths
// produced these exact bytes. They pin the contract that sharing the
// topology is a pure setup-cost optimization, never a behavioural change:
// any change to world construction, the deterministic engine, or the
// artifact formats that moves a byte fails here.
//
// Note the digests are per shard count W. Bit-identity ACROSS W
// (sharded_scan_test) holds only without faults, because fault windows fire
// at per-shard virtual times; a fixed W replays identically even when
// faults are active.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/daemon_world.h"
#include "scenario/shard_world.h"
#include "ting/daemon.h"
#include "ting/half_circuit_cache.h"
#include "ting/sharded_scan.h"

namespace ting::meas {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing file: " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

scenario::ShardWorldOptions faulted_scan_world() {
  scenario::ShardWorldOptions o;
  o.relays = 10;
  o.scan_nodes = 8;
  o.testbed.seed = 51;
  o.testbed.differential_fraction = 0;
  o.ting.samples = 10;
  o.fault_spec = "loss:*:0.03";
  return o;
}

struct ScanArtifacts {
  std::string matrix_csv;
  std::string halves_csv;
  ScanReport report;
};

ScanArtifacts run_sharded_scan(std::size_t shards) {
  const scenario::ShardWorldOptions wo = faulted_scan_world();
  const std::vector<dir::Fingerprint> nodes = scenario::shard_scan_nodes(wo);
  RttMatrix m;
  HalfCircuitCache halves;
  ShardedScanner scanner(scenario::make_testbed_shard_factory(wo));
  ShardedScanOptions so;
  so.shards = shards;
  so.pair_seed = 7;
  so.half_cache = &halves;
  so.attempts_per_pair = 6;  // ride out the 3% loss plan
  ScanArtifacts a;
  a.report = scanner.scan(nodes, m, so);
  a.matrix_csv = m.to_csv();
  a.halves_csv = halves.to_csv();
  return a;
}

TEST(TopologyParityTest, ShardedScanMatchesLegacyClonesUnderFaults) {
  struct Golden {
    std::size_t shards;
    const char* matrix_csv;
    const char* halves_csv;
    std::size_t reseeds, measured, failed;
  };
  for (const Golden& g : {
           Golden{1, "90b00356bfb5d015", "531e30620db6514c", 36, 28, 0},
           Golden{4, "90b00356bfb5d015", "531e30620db6514c", 59, 28, 0},
       }) {
    const ScanArtifacts a = run_sharded_scan(g.shards);
    EXPECT_EQ(fnv1a64(a.matrix_csv), g.matrix_csv) << "W=" << g.shards;
    EXPECT_EQ(fnv1a64(a.halves_csv), g.halves_csv) << "W=" << g.shards;
    // The deterministic replay machinery is pinned too: same pair
    // worklist, same per-pair reseeds.
    EXPECT_EQ(a.report.reseeds, g.reseeds) << "W=" << g.shards;
    EXPECT_EQ(a.report.measured, g.measured) << "W=" << g.shards;
    EXPECT_EQ(a.report.failed, g.failed) << "W=" << g.shards;
    EXPECT_GT(a.matrix_csv.size(), 0u);
  }
}

scenario::DaemonWorldOptions faulted_daemon_world(std::size_t shards) {
  scenario::DaemonWorldOptions o;
  o.relays = 10;
  o.testbed.seed = 52;
  o.testbed.differential_fraction = 0;
  o.ting.samples = 8;
  o.churn.seed = 53;
  o.churn.churn_rate = 0.1;
  o.churn.rejoin_rate = 0.5;
  o.fault_spec = "loss:*:0.02";
  o.shards = shards;
  return o;
}

TEST(TopologyParityTest, DaemonDeltaEpochMatchesLegacyClones) {
  // Three epochs under churn seed 55: epoch 0 measures the 9 relays
  // present, and epochs 1 and 2 measure only the pairs of relays that
  // joined since — delta scans over persistent worlds that carry half-warm
  // state across epoch boundaries, which is exactly where a
  // construction-path divergence would surface.
  const std::string out = ::testing::TempDir() + "/parity_daemon.tingmx";
  scenario::DaemonWorldOptions wo = faulted_daemon_world(/*shards=*/4);
  wo.churn.seed = 55;
  scenario::TestbedDaemonEnvironment env(wo);
  DaemonOptions d;
  d.epochs = 3;
  d.out = out;
  d.seed = 5;
  d.config_tag = "topology-parity";
  ScanDaemon daemon(env, d);
  const DaemonReport report = daemon.run();

  struct GoldenEpoch {
    std::size_t pairs_total, measured, reseeds;
  };
  const GoldenEpoch golden[] = {{36, 36, 72}, {8, 8, 12}, {1, 1, 1}};
  ASSERT_EQ(report.epochs.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(report.epochs[e].scan.pairs_total, golden[e].pairs_total)
        << "epoch " << e;
    EXPECT_EQ(report.epochs[e].scan.measured, golden[e].measured)
        << "epoch " << e;
    EXPECT_EQ(report.epochs[e].scan.reseeds, golden[e].reseeds)
        << "epoch " << e;
  }
  // The later epochs really were deltas: each measured something, and less
  // than a rescan would.
  for (std::size_t e = 1; e < 3; ++e) {
    EXPECT_GT(report.epochs[e].scan.measured, 0u) << "epoch " << e;
    EXPECT_LT(report.epochs[e].scan.pairs_total,
              report.epochs[0].scan.pairs_total)
        << "epoch " << e;
  }
  // The artifact the run leaves on disk.
  EXPECT_EQ(fnv1a64(read_file(out)), "fa214d04bc38853a");
}

}  // namespace
}  // namespace ting::meas
