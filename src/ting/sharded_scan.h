// ShardedScanner — the multi-threaded scan engine. The all-pairs worklist
// is partitioned round-robin across W worker threads; each worker owns a
// complete, independent simulation world (its own event loop, network,
// testbed clone, and measurement pool) built by a ShardWorldFactory, runs a
// ParallelScanner over its slice, and the per-shard ScanReports and each
// shard's results for its own slice are merged after the threads join.
//
// Threads never share mutable state: every world lives entirely on the
// thread that built it, and merging happens after join. That is what makes
// the engine trivially clean under TSan — the only cross-thread traffic is
// the (mutex-guarded) progress callback and the per-shard result slots,
// which each have exactly one writer.
//
// Determinism: with ShardedScanOptions::deterministic (the default), every
// pair's estimate is a pure function of (world construction seed,
// pair_seed, x, y) — see ScanOptions::reseed_world — so the merged matrix
// is bit-identical for any shard count W, given worlds built from the same
// master seed. With deterministic=false, each shard runs its measurement
// pool concurrently (faster when the factory provisions K > 1 measurers per
// world) but output is only stable for a fixed (W, K).
//
// Caveat: fault plans fire at per-shard virtual times, so bit-identity
// across shard counts is only guaranteed for fault-free scans.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "ting/scheduler.h"

namespace ting::meas {

/// One shard's private simulation world. The factory constructs it on the
/// worker thread, the scanner drives it there, and it is destroyed there;
/// implementations need no synchronisation.
class ShardWorld {
 public:
  virtual ~ShardWorld() = default;

  /// The world's measurement pool (>= 1 measurer, all sharing the world's
  /// event loop, already started). Pointers stay valid for the world's
  /// lifetime.
  virtual std::vector<TingMeasurer*> measurers() = 0;

  /// Reset every stochastic component of the world (network jitter rng,
  /// relay queue rngs, measurement-apparatus rngs) to a deterministic
  /// function of `seed`. Fingerprints, sessions, and topology are untouched.
  virtual void reseed(std::uint64_t seed) = 0;

  /// Optional live consensus for churn re-resolution (see ScanOptions).
  virtual const dir::Consensus* live_consensus() { return nullptr; }
  /// Optional fault plan active in this world (annotation + scheduling
  /// already installed by the factory).
  virtual const simnet::FaultPlan* fault_plan() { return nullptr; }
};

/// Builds shard `shard`'s world. Invoked on the worker thread itself, so W
/// worlds construct in parallel and every world is born on the thread that
/// will drive it.
using ShardWorldFactory =
    std::function<std::unique_ptr<ShardWorld>(std::size_t shard)>;

struct ShardedScanOptions : ScanOptions {
  /// Worker threads = independent shard worlds.
  std::size_t shards = 1;
  /// Per-pair world reseeding for bit-identical output across shard counts
  /// (strictly serial within each shard). When false, each shard's pool
  /// runs concurrently and only (shards, pool size)-stability holds.
  bool deterministic = true;
};

class ShardedScanner {
 public:
  explicit ShardedScanner(ShardWorldFactory factory);

  /// Measure all unordered pairs of `nodes`, fanned out across
  /// options.shards worker threads, and merge the results into `out`.
  /// Blocks until every shard joins; a shard's exception is rethrown after
  /// all threads have been joined. `progress` (if set) is invoked under a
  /// mutex with globally-aggregated counts, in completion order.
  ScanReport scan(const std::vector<dir::Fingerprint>& nodes, RttMatrix& out,
                  const ShardedScanOptions& options = {},
                  const ScanProgress& progress = {});

  /// Measure an explicit worklist of index pairs into `nodes` — the scan
  /// daemon's entry point (each epoch hands over the delta planner's
  /// worklist rather than all pairs). Same partitioning, merge, and
  /// determinism rules as scan(), which is this method over the full
  /// all-pairs list.
  ScanReport scan_pairs(const std::vector<dir::Fingerprint>& nodes,
                        const ParallelScanner::PairList& pairs, RttMatrix& out,
                        const ShardedScanOptions& options = {},
                        const ScanProgress& progress = {});

 private:
  ShardWorldFactory factory_;
};

}  // namespace ting::meas
