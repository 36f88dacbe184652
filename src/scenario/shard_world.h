// Testbed-backed shard worlds for the sharded scan engine: every shard
// instantiates its own mutable world half (event loop, network, relays,
// measurement hosts) over one immutable live_tor() topology built once from
// the ShardWorldOptions — the same relay fingerprints, geography, and
// latency model in every world — so per-shard measurements land on the same
// logical pairs and merge cleanly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "scenario/testbed.h"
#include "simnet/fault_plan.h"
#include "ting/sharded_scan.h"

namespace ting::scenario {

struct ShardWorldOptions {
  /// Testbed size (live_tor relays) and which prefix of them is scanned.
  std::size_t relays = 25;
  std::size_t scan_nodes = 12;
  /// World construction parameters — identical across shards by design.
  TestbedOptions testbed;
  meas::TingConfig ting;
  /// Measurement hosts per shard world (ParallelScanner concurrency K
  /// inside the shard; deterministic mode only drives the first).
  std::size_t pool = 1;
  /// Optional fault spec (scenario/faults.h grammar), applied to each
  /// world's scan nodes. Faults fire at per-shard virtual times, so
  /// bit-identity across shard counts no longer holds.
  std::string fault_spec;
};

/// One shard's world: a Testbed plus its measurers and (optional) fault
/// plan, owned together so the factory result is self-contained.
class TestbedShardWorld : public meas::ShardWorld {
 public:
  /// Instantiates the mutable world half over a pre-built shared topology
  /// (see shard_topology).
  TestbedShardWorld(const ShardWorldOptions& options, TopologyPtr topology);

  std::vector<meas::TingMeasurer*> measurers() override { return pool_; }
  void reseed(std::uint64_t seed) override {
    world_.reseed_stochastics(seed);
  }
  const dir::Consensus* live_consensus() override {
    return &world_.consensus();
  }
  const simnet::FaultPlan* fault_plan() override {
    return has_faults_ ? plan_.get() : nullptr;
  }

  Testbed& world() { return world_; }

 private:
  Testbed world_;
  std::unique_ptr<simnet::FaultPlan> plan_;
  std::vector<std::unique_ptr<meas::TingMeasurer>> measurers_;
  std::vector<meas::TingMeasurer*> pool_;
  bool has_faults_ = false;
};

/// A factory building identical TestbedShardWorlds (one per worker thread),
/// all instantiated over `topology`; pass the one shard_topology(options)
/// returns, which the caller typically also reads the scan-node list from.
meas::ShardWorldFactory make_testbed_shard_factory(ShardWorldOptions options,
                                                   TopologyPtr topology);

/// Same, building the topology once, eagerly, on the calling thread.
meas::ShardWorldFactory make_testbed_shard_factory(ShardWorldOptions options);

/// The topology such worlds share: live_tor(options.relays) frozen at the
/// immutable layer.
TopologyPtr shard_topology(const ShardWorldOptions& options);

/// The scan-node fingerprints such worlds will carry — deterministic from
/// the options alone; reads them off the frozen topology without building
/// any world.
std::vector<dir::Fingerprint> shard_scan_nodes(
    const ShardWorldOptions& options);
std::vector<dir::Fingerprint> shard_scan_nodes(
    const ShardWorldOptions& options, const TopologyPtr& topology);

}  // namespace ting::scenario
