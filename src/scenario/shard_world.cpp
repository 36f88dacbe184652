#include "scenario/shard_world.h"

#include <algorithm>

#include "scenario/faults.h"
#include "util/assert.h"

namespace ting::scenario {

TestbedShardWorld::TestbedShardWorld(const ShardWorldOptions& options,
                                     TopologyPtr topology)
    : world_(testbed_from_topology(std::move(topology))) {
  std::vector<dir::Fingerprint> nodes;
  const std::size_t n = std::min(options.scan_nodes, world_.relay_count());
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(world_.fp(i));

  plan_ = std::make_unique<simnet::FaultPlan>(world_.net());
  if (!options.fault_spec.empty()) {
    const FaultSpec spec = FaultSpec::parse(options.fault_spec);
    apply_fault_spec(spec, world_, nodes, *plan_, options.testbed.seed);
    has_faults_ = true;
  }

  for (meas::MeasurementHost* host :
       world_.measurement_pool(std::max<std::size_t>(1, options.pool))) {
    measurers_.push_back(
        std::make_unique<meas::TingMeasurer>(*host, options.ting));
    pool_.push_back(measurers_.back().get());
  }
}

meas::ShardWorldFactory make_testbed_shard_factory(ShardWorldOptions options,
                                                   TopologyPtr topology) {
  TING_CHECK(topology != nullptr);
  return [options,
          topology = std::move(topology)](std::size_t)
             -> std::unique_ptr<meas::ShardWorld> {
    return std::make_unique<TestbedShardWorld>(options, topology);
  };
}

meas::ShardWorldFactory make_testbed_shard_factory(ShardWorldOptions options) {
  TopologyPtr topology = shard_topology(options);
  return make_testbed_shard_factory(std::move(options), std::move(topology));
}

TopologyPtr shard_topology(const ShardWorldOptions& options) {
  return SharedTopology::live_tor(options.relays, options.testbed);
}

std::vector<dir::Fingerprint> shard_scan_nodes(
    const ShardWorldOptions& options) {
  return shard_scan_nodes(options, shard_topology(options));
}

std::vector<dir::Fingerprint> shard_scan_nodes(
    const ShardWorldOptions& options, const TopologyPtr& topology) {
  std::vector<dir::Fingerprint> nodes;
  const std::size_t n =
      std::min(options.scan_nodes, topology->relays().size());
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    nodes.push_back(topology->relays()[i].fingerprint);
  return nodes;
}

}  // namespace ting::scenario
