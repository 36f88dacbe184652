#include "ting/sharded_scan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>

#include "ting/half_circuit_cache.h"
#include "util/assert.h"

namespace ting::meas {

namespace {

/// Merge shard `r` into `merged`. Counters sum; concurrency high-water
/// marks sum across shards (the machines really do run at once) except the
/// per-relay mark, which is a per-world invariant and takes the max;
/// virtual_time is the max because shard clocks advance independently.
void merge_report(ScanReport& merged, const ScanReport& r) {
  merged.measured += r.measured;
  merged.from_cache += r.from_cache;
  merged.failed += r.failed;
  merged.failed_transient += r.failed_transient;
  merged.failed_permanent += r.failed_permanent;
  merged.failed_churned += r.failed_churned;
  merged.churn_reresolved += r.churn_reresolved;
  merged.retries += r.retries;
  merged.circuits_built += r.circuits_built;
  merged.half_cache_hits += r.half_cache_hits;
  merged.samples_saved += r.samples_saved;
  merged.time_building += r.time_building;
  merged.time_sampling += r.time_sampling;
  merged.world_construct_ms += r.world_construct_ms;
  merged.reseeds += r.reseeds;
  merged.max_in_flight += r.max_in_flight;
  merged.max_per_relay_in_flight =
      std::max(merged.max_per_relay_in_flight, r.max_per_relay_in_flight);
  merged.virtual_time = std::max(merged.virtual_time, r.virtual_time);
  merged.deferred += r.deferred;
  merged.probation_probes += r.probation_probes;
  merged.interrupted_pairs += r.interrupted_pairs;
  merged.interrupted = merged.interrupted || r.interrupted;
  if (merged.retry_histogram.size() < r.retry_histogram.size())
    merged.retry_histogram.resize(r.retry_histogram.size(), 0);
  for (std::size_t k = 0; k < r.retry_histogram.size(); ++k)
    merged.retry_histogram[k] += r.retry_histogram[k];
  merged.failed_pairs.insert(merged.failed_pairs.end(), r.failed_pairs.begin(),
                             r.failed_pairs.end());
  merged.deferred_pairs.insert(merged.deferred_pairs.end(),
                               r.deferred_pairs.begin(),
                               r.deferred_pairs.end());
  merged.quarantine_events.insert(merged.quarantine_events.end(),
                                  r.quarantine_events.begin(),
                                  r.quarantine_events.end());
  merged.fault_events.insert(merged.fault_events.end(), r.fault_events.begin(),
                             r.fault_events.end());
}

}  // namespace

ShardedScanner::ShardedScanner(ShardWorldFactory factory)
    : factory_(std::move(factory)) {
  TING_CHECK_MSG(factory_ != nullptr, "sharded scan needs a world factory");
}

ScanReport ShardedScanner::scan(const std::vector<dir::Fingerprint>& nodes,
                                RttMatrix& out,
                                const ShardedScanOptions& options,
                                const ScanProgress& progress) {
  // Canonical all-pairs worklist; scan_pairs does the real work.
  ParallelScanner::PairList all;
  if (!nodes.empty()) all.reserve(nodes.size() * (nodes.size() - 1) / 2);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      all.emplace_back(i, j);
  return scan_pairs(nodes, all, out, options, progress);
}

ScanReport ShardedScanner::scan_pairs(const std::vector<dir::Fingerprint>& nodes,
                                      const ParallelScanner::PairList& all,
                                      RttMatrix& out,
                                      const ShardedScanOptions& options,
                                      const ScanProgress& progress) {
  TING_CHECK(options.shards >= 1);
  const std::size_t shards = options.shards;

  // Partition round-robin so every shard gets a representative mix of
  // relays (block partitioning would hand one shard all the pairs of the
  // hottest relays).
  std::vector<ParallelScanner::PairList> slices(shards);
  for (std::size_t p = 0; p < all.size(); ++p)
    slices[p % shards].push_back(all[p]);

  struct ShardResult {
    ScanReport report;
    RttMatrix matrix;
    HalfCircuitCache half_cache;  ///< shard-private copy of the caller's cache
    std::exception_ptr error;
  };
  std::vector<ShardResult> results(shards);
  const std::size_t total = all.size();
  std::atomic<std::size_t> global_done{0};
  std::mutex progress_mu;

  auto run_shard = [&](std::size_t s) {
    try {
      const auto construct_start = std::chrono::steady_clock::now();
      std::unique_ptr<ShardWorld> world = factory_(s);
      TING_CHECK_MSG(world != nullptr, "shard factory returned null");
      const double construct_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - construct_start)
              .count();
      // Seed the shard-private matrix with the caller's entries so a
      // resumed scan (matrix preloaded from the journal) skips completed
      // pairs in every shard, not just in the merged output.
      results[s].matrix = out;
      ParallelScanner scanner(world->measurers(), results[s].matrix);
      ScanOptions opt = options;  // slice off the shard fields
      if (options.half_cache != nullptr) {
        // Each worker measures against a private copy — threads never share
        // the cache — and the freshest entries are merged back after join.
        results[s].half_cache = *options.half_cache;
        opt.half_cache = &results[s].half_cache;
      }
      if (options.deterministic)
        opt.reseed_world = [&world](std::uint64_t seed) {
          world->reseed(seed);
        };
      if (opt.live_consensus == nullptr)
        opt.live_consensus = world->live_consensus();
      if (opt.fault_plan == nullptr) opt.fault_plan = world->fault_plan();
      ScanProgress shard_progress;
      if (progress)
        shard_progress = [&](std::size_t, std::size_t, const PairResult& r) {
          const std::size_t d = global_done.fetch_add(1) + 1;
          const std::lock_guard<std::mutex> lock(progress_mu);
          progress(d, total, r);
        };
      results[s].report =
          scanner.scan_pairs(nodes, slices[s], opt, shard_progress);
      results[s].report.world_construct_ms += construct_ms;
    } catch (...) {
      results[s].error = std::current_exception();
    }
  };

  if (shards == 1) {
    run_shard(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) workers.emplace_back(run_shard, s);
    for (std::thread& t : workers) t.join();
  }

  for (const ShardResult& r : results)
    if (r.error) std::rethrow_exception(r.error);

  ScanReport merged;
  merged.pairs_total = total;
  for (const ShardResult& r : results) merge_report(merged, r.report);
  // Shard-count-independent ordering for the concatenated lists.
  std::sort(merged.failed_pairs.begin(), merged.failed_pairs.end(),
            [](const FailedPair& a, const FailedPair& b) {
              return std::tie(a.a, a.b) < std::tie(b.a, b.b);
            });
  std::sort(merged.deferred_pairs.begin(), merged.deferred_pairs.end(),
            [](const DeferredPair& a, const DeferredPair& b) {
              return std::tie(a.a, a.b) < std::tie(b.a, b.b);
            });
  std::stable_sort(merged.quarantine_events.begin(),
                   merged.quarantine_events.end(),
                   [](const QuarantineEvent& a, const QuarantineEvent& b) {
                     return std::tie(a.at, a.relay) < std::tie(b.at, b.relay);
                   });
  std::stable_sort(merged.fault_events.begin(), merged.fault_events.end(),
                   [](const simnet::FaultPlan::Event& a,
                      const simnet::FaultPlan::Event& b) { return a.at < b.at; });
  // Copy back only each shard's own slice: every shard started from a copy
  // of `out`, so its other entries are stale seeds, and replaying them would
  // overwrite what another shard just remeasured.
  for (std::size_t s = 0; s < shards; ++s) {
    for (const auto& [i, j] : slices[s]) {
      const RttMatrix::Entry* e = results[s].matrix.entry(nodes[i], nodes[j]);
      if (e != nullptr)
        out.set(nodes[i], nodes[j], e->rtt_ms, e->measured_at, e->samples);
    }
  }
  if (options.half_cache != nullptr)
    for (const ShardResult& r : results)
      options.half_cache->merge_freshest(r.half_cache);
  return merged;
}

}  // namespace ting::meas
