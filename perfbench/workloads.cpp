// The four benchmark workloads. Each runs its iteration body repeatedly
// until the next iteration would overrun the time budget (at least once; at
// least twice when traced, so traced and untraced iterations alternate and
// the trace's own overhead can be measured), every iteration in a fresh,
// empty subdirectory of the run directory.
//
// End-to-end numbers come from untraced iterations only. Traced iterations
// wrap the library's public seams — ShardWorldFactory/ShardWorld and
// DaemonEnvironment decorators, the CheckpointHook — and record spans into a
// Trace; the layer legs (legs.cpp) then run on the final state.
#include <sys/stat.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.h"
#include "legs.h"
#include "scenario/shard_world.h"
#include "scenario/synthetic_env.h"
#include "serve/path_server.h"
#include "ting/daemon.h"
#include "ting/scan_journal.h"
#include "ting/sharded_scan.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ting;

/// The `ting query` phase of a scan or daemon_* run, after its iterations:
/// one reader on the final store for kQueryS, in windows of kSubWindowS each
/// on a fresh thread. On a shared host one vCPU's speed swings by up to 2x
/// within a second, and a fresh thread often lands on another vCPU, so short
/// windows on fresh threads sample the host more evenly than one long window.
constexpr double kQueryS = 5.0;
constexpr double kSubWindowS = 0.25;
/// Setup repetitions behind the setup_s median: the scan repeats its cheap
/// setup kSetupReps times; the daemon workloads set up once per iteration
/// and top up to kMinSetups, and on to kSetupReps while the top-up has taken
/// less than kSetupTopUpS.
constexpr std::size_t kSetupReps = 25;
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupTopUpS = 2.0;
/// Closed-loop readers beside the serve workload's publishing daemon.
constexpr unsigned kReaders = 2;

/// A new, empty directory for iteration `k` of this run.
std::string fresh_dir(std::size_t k) {
  const std::string dir = "iter" + std::to_string(k);
  if (!std::filesystem::create_directory(dir) ||
      !std::filesystem::is_empty(dir))
    throw std::runtime_error("iteration directory " + dir +
                             " already exists; runs must start empty");
  return dir;
}

double file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}

/// Runs `body(k, traced)` until another iteration would end past `budget_s`
/// (measured from the call). Traced runs alternate untraced (even k) and
/// traced (odd k) iterations.
template <typename Body>
void iterate(const Options& o, double budget_s, Result& r, Body&& body) {
  const double start = now_s();
  std::vector<double> took;
  for (std::size_t k = 0;; ++k) {
    const double t0 = now_s();
    body(k, o.trace && k % 2 == 1);
    took.push_back(now_s() - t0);
    r.iterations = k + 1;
    const std::size_t min_iterations = o.trace ? 2 : 1;
    if (k + 1 >= min_iterations && now_s() - start + median(took) > budget_s)
      break;
  }
}

/// Per-iteration numbers, split by whether the iteration was traced.
struct Throughput {
  std::vector<double> plain, traced;
  void add(bool is_traced, double v) {
    (is_traced ? traced : plain).push_back(v);
  }
  /// Relative slowdown of traced iterations, in percent. The first
  /// iteration warms caches and the heap, so it is left out of the
  /// comparison whenever a later untraced iteration exists.
  double overhead_pct() const {
    if (plain.empty() || traced.empty()) return 0;
    const std::vector<double> warm =
        plain.size() > 1 ? std::vector<double>(plain.begin() + 1, plain.end())
                         : plain;
    return (median(warm) / median(traced) - 1) * 100;
  }
};

/// Identical work must produce identical outputs and counters: the first
/// iteration pins them, later iterations are checked against it.
class RepeatCheck {
 public:
  void observe(Result& r, const std::map<std::string, std::string>& digests,
               const std::map<std::string, double>& counters) {
    if (first_) {
      first_ = false;
      r.digests = digests;
      r.counters = counters;
      return;
    }
    r.check(digests == r.digests, "outputs differ between iterations");
    r.check(counters == r.counters, "work counters differ between iterations");
  }

 private:
  bool first_ = true;
};

/// The ledger every engine report must balance.
bool ledger_ok(const meas::ScanReport& s) {
  return s.measured + s.from_cache + s.failed + s.deferred +
             s.interrupted_pairs ==
         s.pairs_total;
}

std::uint64_t unresolved(const meas::ScanReport& s) {
  return s.failed + s.deferred + s.interrupted_pairs;
}

// ---- query traffic ------------------------------------------------------------

enum QueryKind { kRtt, kDetour, kBand, kThrough, kKinds };
const char* const kKindName[kKinds] = {"rtt", "detour", "band", "through"};

/// One closed-loop reader's record, on cache lines of its own.
struct alignas(64) Reader {
  LatencySample all;
  LatencySample by_kind[kKinds];
  /// When this reader first saw each epoch's snapshot (0 = never).
  std::vector<double> first_seen;
  std::uint64_t errors = 0;
};

/// Issues the fixed mix (rtt 40%, detour 40%, band 15%, through 5%) back to
/// back until `stop`, against whatever state is current.
void read_loop(const serve::PathServer& server, const std::atomic<bool>& stop,
               std::uint64_t seed, Reader& me) {
  Rng rng(seed);
  std::shared_ptr<const serve::ServingState> st;
  double sink = 0;
  for (std::size_t q = 0; !stop.load(std::memory_order_relaxed); ++q) {
    if (st == nullptr || q % 64 == 0) {
      std::shared_ptr<const serve::ServingState> cur = server.state();
      if (cur == nullptr || cur->snapshot.node_count() < 2) {
        std::this_thread::yield();
        continue;
      }
      if (cur != st) {
        st = std::move(cur);
        const std::size_t e = st->snapshot.epoch();
        if (e < me.first_seen.size() && me.first_seen[e] == 0)
          me.first_seen[e] = now_s();
      }
    }
    const auto& nodes = st->snapshot.nodes();
    const std::size_t i = rng.next_below(nodes.size());
    const std::size_t j =
        (i + 1 + rng.next_below(nodes.size() - 1)) % nodes.size();
    const double u = rng.uniform();
    const QueryKind kind = u < 0.40   ? kRtt
                           : u < 0.80 ? kDetour
                           : u < 0.95 ? kBand
                                      : kThrough;
    const auto q0 = std::chrono::steady_clock::now();
    try {
      switch (kind) {
        case kRtt:
          sink += server.rtt(nodes[i], nodes[j]).value_or(0);
          break;
        case kDetour: {
          const auto d = server.best_detour(nodes[i], nodes[j]);
          sink += d.has_value() ? d->detour_ms : 0;
          break;
        }
        case kBand:
          sink += static_cast<double>(
              server.circuits_in_band(3, 50.0, 250.0, 3).size());
          break;
        default:
          sink += static_cast<double>(server.fastest_through(nodes[i], 3).size());
      }
    } catch (const std::exception&) {
      ++me.errors;
    }
    const auto q1 = std::chrono::steady_clock::now();
    const auto ns = static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(q1 - q0).count());
    me.all.add(ns);
    me.by_kind[kind].add(ns);
  }
  if (sink == -1) ++me.errors;  // keeps the answers observable
}

/// `readers` closed-loop threads running read_loop against `server` from
/// construction until stop(). The query window opens when the first publish
/// completes; staleness of an epoch runs from durable() to the first reader
/// seeing that epoch's snapshot.
class QueryTraffic {
 public:
  QueryTraffic(const serve::PathServer& server, unsigned readers,
               std::size_t epochs, std::uint64_t seed)
      : readers_(readers), durable_at_(epochs, 0) {
    for (Reader& rd : readers_) rd.first_seen.assign(epochs, 0);
    for (unsigned t = 0; t < readers; ++t)
      threads_.emplace_back([this, &server, seed, t] {
        read_loop(server, stop_, seed + t, readers_[t]);
      });
  }
  ~QueryTraffic() { stop(); }

  /// `epoch`'s data is durable and about to be published.
  void durable(std::size_t epoch) {
    if (epoch < durable_at_.size()) durable_at_[epoch] = now_s();
  }
  /// A publish completed.
  void published() {
    if (window_start_ == 0) window_start_ = now_s();
  }
  /// Stops and joins the readers; closes the window.
  void stop() {
    if (threads_.empty()) return;
    window_end_ = now_s();
    stop_ = true;
    threads_.clear();
  }

  const std::vector<Reader>& readers() const { return readers_; }
  /// Length of the query window, s (0 when nothing was published).
  double window_s() const {
    return window_start_ > 0 ? window_end_ - window_start_ : 0;
  }
  /// Per published epoch: durable() to the first reader seeing it, ms.
  std::vector<double> staleness_ms() const {
    std::vector<double> out;
    for (std::size_t e = 0; e < durable_at_.size(); ++e) {
      double seen = 0;
      for (const Reader& rd : readers_)
        if (rd.first_seen[e] > 0 && (seen == 0 || rd.first_seen[e] < seen))
          seen = rd.first_seen[e];
      if (seen > 0 && durable_at_[e] > 0)
        out.push_back((seen - durable_at_[e]) * 1e3);
    }
    return out;
  }

 private:
  std::vector<Reader> readers_;
  std::vector<double> durable_at_;
  std::atomic<bool> stop_{false};
  double window_start_ = 0, window_end_ = 0;
  std::vector<std::jthread> threads_;
};

/// Query figures of a run, pooled over its untraced windows: queries per
/// second of window time, and latency quantiles over every sampled query.
/// Per-kind latencies come from the traced windows.
class QueryStats {
 public:
  void add(const QueryTraffic& t, bool traced) {
    for (const Reader& rd : t.readers()) {
      queries_ += rd.all.seen();
      errors_ += rd.errors;
      if (traced) {
        for (int k = 0; k < kKinds; ++k) rd.by_kind[k].merge_into(kind_ns_[k]);
      } else {
        window_queries_ += static_cast<double>(rd.all.seen());
        rd.all.merge_into(latency_ns_);
      }
    }
    if (traced) return;
    window_s_ += t.window_s();
    for (double s : t.staleness_ms()) staleness_ms_.push_back(s);
  }

  void report(Result& r) const {
    r.attempted += queries_;
    r.failed += errors_;
    if (window_s_ > 0) {
      r.e2e["queries_per_s"] = window_queries_ / window_s_;
      const LatencySummary s = summarize(latency_ns_, 1e-3);
      r.e2e["query_p50_us"] = s.p50;
      r.e2e["query_p99_us"] = s.p99;
      s.describe("query_us", r.info);
      r.e2e["staleness_ms_p50"] = median(staleness_ms_);
      r.info["staleness_ms.count"] = static_cast<double>(staleness_ms_.size());
    }
    if (kind_ns_[kRtt].empty()) return;  // untraced run
    for (int k = 0; k < kKinds; ++k) {
      const std::string name = std::string("serve.") + kKindName[k];
      const LatencySummary s = summarize(kind_ns_[k]);
      r.layers[name + "_p50_ns"] = s.p50;
      r.layers[name + "_p99_ns"] = s.p99;
      s.describe(name + "_ns", r.info);
    }
  }

 private:
  double window_queries_ = 0, window_s_ = 0;
  std::vector<double> latency_ns_, staleness_ms_;
  std::vector<double> kind_ns_[kKinds];
  std::uint64_t queries_ = 0, errors_ = 0;
};

/// The `ting query` path on a workload's durable store: load it with
/// load_matrix_any, publish it (its kServeLegRelays best-covered relays: the
/// detour index is O(n^3)) into a PathServer with `ting query`'s options, and
/// let one reader, as `ting query` is one caller, query that for `seconds`.
/// Staleness here is the time from the start of the load to the reader
/// seeing the snapshot.
void query_store(const std::string& path, double seconds, std::uint64_t seed,
                 bool traced, Trace& trace, QueryStats& stats) {
  serve::ServeOptions so;  // `ting query` defaults
  so.seed = seed;
  serve::PathServer server(so);
  const auto windows = static_cast<unsigned>(std::ceil(seconds / kSubWindowS));
  for (unsigned w = 0; w < windows; ++w) {
    QueryTraffic traffic(server, 1, 1, seed * 1000 + w);
    if (w == 0) {
      traffic.durable(0);
      const meas::RttMatrix served =
          best_covered_relays(meas::load_matrix_any(path), kServeLegRelays);
      const double p0 = now_s();
      server.publish(served);
      if (traced) trace.add("serve.publish_ms", (now_s() - p0) * 1e3);
    }
    traffic.published();
    std::this_thread::sleep_for(std::chrono::duration<double>(kSubWindowS));
    traffic.stop();
    stats.add(traffic, traced);
  }
}

/// Wall time of `setup()`, s, run on a fresh thread: a setup on the calling
/// thread would time one vCPU's momentary speed, which on a shared host
/// swings by up to 2x within a second, while a fresh thread often lands on
/// another vCPU.
template <typename Setup>
double on_fresh_thread(Setup&& setup) {
  double s = 0;
  std::jthread([&] {
    const double t0 = now_s();
    setup();
    s = now_s() - t0;
  }).join();
  return s;
}

/// Peak RSS as of the end of the first iteration's workload, before any read
/// phase or later iteration can add benchmark-side memory or heap
/// fragmentation to the high-water mark.
void note_peak_rss(Result& r) {
  if (!r.e2e.contains("peak_rss_mb")) r.e2e["peak_rss_mb"] = peak_rss_mb();
}

void report_common(const std::vector<double>& setup_s, const Throughput& pps,
                   const std::vector<double>& cpu_ms_per_pair,
                   std::uint64_t pairs, std::uint64_t unresolved_pairs,
                   Result& r) {
  r.e2e["pairs_per_s"] = median(pps.plain);
  r.e2e["cpu_ms_per_pair"] = median(cpu_ms_per_pair);
  r.e2e["setup_s"] = median(setup_s);
  r.attempted += pairs;
  r.failed += unresolved_pairs;
  r.info["failed_fraction"] =
      pairs > 0 ? static_cast<double>(unresolved_pairs) /
                      static_cast<double>(pairs)
                : 0;
  r.info["pairs_per_s.iterations"] = static_cast<double>(pps.plain.size());
  r.info["setup_s.samples"] = static_cast<double>(setup_s.size());
  if (!pps.traced.empty()) r.layers["trace.overhead_pct"] = pps.overhead_pct();
}

// ---- scan -------------------------------------------------------------------

/// Traced shard world: times every reseed and the interval between
/// consecutive reseeds on this shard's thread (one probe each).
class TracedWorld : public meas::ShardWorld {
 public:
  TracedWorld(std::unique_ptr<meas::ShardWorld> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::vector<meas::TingMeasurer*> measurers() override {
    return inner_->measurers();
  }
  void reseed(std::uint64_t seed) override {
    const double t0 = now_s();
    if (last_ > 0) trace_.add("engine.probe_ms", (t0 - last_) * 1e3);
    inner_->reseed(seed);
    last_ = now_s();
    trace_.add("scenario.reseed_us", (last_ - t0) * 1e6);
  }
  const dir::Consensus* live_consensus() override {
    return inner_->live_consensus();
  }
  const simnet::FaultPlan* fault_plan() override {
    return inner_->fault_plan();
  }

 private:
  std::unique_ptr<meas::ShardWorld> inner_;
  Trace& trace_;
  double last_ = 0;
};

}  // namespace

void run_scan(const Options& o, Result& r) {
  scenario::ShardWorldOptions swo;
  swo.relays = 50;
  swo.scan_nodes = 50;
  swo.testbed.seed = o.seed;
  swo.ting.samples = 100;
  swo.ting.adaptive_samples = true;
  Trace trace;

  // Setup: the shared topology, the scan-node list, and one shard world.
  std::vector<double> setup_s;
  scenario::TopologyPtr topology;
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < kSetupReps; ++i)
    setup_s.push_back(on_fresh_thread([&] {
      const double t0 = now_s();
      topology = scenario::shard_topology(swo);
      nodes = scenario::shard_scan_nodes(swo, topology);
      trace.add("scenario.topology_ms", (now_s() - t0) * 1e3);
      (void)scenario::make_testbed_shard_factory(swo, topology)(0);
    }));

  Throughput pps;
  std::vector<double> cpu_pp;
  std::uint64_t pairs = 0, bad = 0;
  RepeatCheck repeat;
  meas::RttMatrix final_matrix;
  std::string final_csv;
  QueryStats queries;
  iterate(o, o.seconds - kQueryS, r, [&](std::size_t k, bool traced) {
    const std::string dir = fresh_dir(k);
    const std::string out = dir + "/matrix.csv";
    const std::string halves_path = out + ".halves.csv";
    // As `ting scan` defaults: journal with checkpoints every 25 pairs, and
    // the half-circuit cache journaled as it fills.
    meas::HalfCircuitCache halves;
    meas::ScanJournal journal(out + ".journal", meas::ScanJournal::Mode::kFresh,
                              meas::ScanJournal::Meta{1, o.seed, nodes.size()});
    journal.enable_checkpoints(out, halves_path, 25);
    halves.set_store_observer(
        [&journal](const dir::Fingerprint& host_w, const dir::Fingerprint& relay,
                   const meas::HalfCircuitCache::Entry& e) {
          journal.record_half(meas::ScanJournal::HalfRecord{
              host_w, relay, e.rtt_ms, e.measured_at, e.samples});
        });

    // Worlds are built on the shard threads inside scan(); the factory
    // decorator times that so pairs_per_s can exclude it.
    std::mutex mu;
    double worlds_ready = 0, construct_cpu = 0;
    const meas::ShardWorldFactory base =
        scenario::make_testbed_shard_factory(swo, topology);
    meas::ShardedScanner scanner(
        [&, traced](std::size_t shard) -> std::unique_ptr<meas::ShardWorld> {
          const double w0 = now_s(), c0 = thread_cpu_s();
          std::unique_ptr<meas::ShardWorld> world = base(shard);
          const double w1 = now_s(), c1 = thread_cpu_s();
          {
            std::lock_guard<std::mutex> lock(mu);
            worlds_ready = std::max(worlds_ready, w1);
            construct_cpu += c1 - c0;
          }
          if (!traced) return world;
          trace.add("scenario.shard_construct_ms", (w1 - w0) * 1e3);
          return std::make_unique<TracedWorld>(std::move(world), trace);
        });
    meas::ShardedScanOptions so;
    so.shards = o.shards;
    so.deterministic = true;
    so.pair_seed = o.seed;
    so.half_cache = &halves;
    so.journal = &journal;
    so.quarantine.enabled = true;

    meas::RttMatrix matrix;
    const double c0 = process_cpu_s(), t0 = now_s();
    const meas::ScanReport rep = scanner.scan(nodes, matrix, so);
    const double t1 = now_s(), c1 = process_cpu_s();
    note_peak_rss(r);
    halves.set_store_observer({});
    const double journal_bytes = file_bytes(journal.path());
    matrix.save_csv(out);
    halves.save_csv(halves_path);

    const double n = static_cast<double>(rep.pairs_total);
    pps.add(traced, n / (t1 - std::max(worlds_ready, t0)));
    if (!traced) cpu_pp.push_back((c1 - c0 - construct_cpu) * 1e3 / n);
    pairs += rep.pairs_total;
    bad += unresolved(rep);
    r.check(ledger_ok(rep), "scan ledger does not balance");
    r.check(rep.pairs_total == nodes.size() * (nodes.size() - 1) / 2,
            "scan did not cover all pairs");

    Digest d;
    d.str(meas::SparseRttMatrix::from_rtt_matrix(matrix).to_bin());
    const std::map<std::string, double> counters{
        {"engine.circuits_built", static_cast<double>(rep.circuits_built)},
        {"engine.half_cache_hits", static_cast<double>(rep.half_cache_hits)},
        {"engine.reseeds", static_cast<double>(rep.reseeds)},
        {"engine.retries", static_cast<double>(rep.retries)},
        {"journal.fsyncs_per_pair", static_cast<double>(journal.fsyncs()) / n},
        {"journal.bytes_per_pair", journal_bytes / n},
        {"planner.pairs_planned", n},
        {"store.pairs", static_cast<double>(matrix.size())}};
    repeat.observe(r, {{"matrix", d.hex()}}, counters);
    final_matrix = std::move(matrix);
    final_csv = out;
  });
  // The store a consumer of the scan reads: the CSV `ting scan` writes.
  query_store(final_csv, kQueryS, o.seed * 1000, o.trace, trace, queries);

  report_common(setup_s, pps, cpu_pp, pairs, bad, r);
  queries.report(r);

  if (!o.trace) return;
  r.layers.insert(r.counters.begin(), r.counters.end());
  const LatencySummary probe = summarize(trace.spans("engine.probe_ms"));
  r.layers["engine.probe_ms_p50"] = probe.p50;
  r.layers["engine.probe_ms_p99"] = probe.p99;
  probe.describe("engine.probe_ms", r.info);
  r.layers["scenario.reseed_us"] = median(trace.spans("scenario.reseed_us"));
  r.layers["scenario.topology_ms"] = median(trace.spans("scenario.topology_ms"));
  r.layers["scenario.shard_construct_ms"] =
      median(trace.spans("scenario.shard_construct_ms"));
  r.layers["serve.publish_ms"] = median(trace.spans("serve.publish_ms"));
  const meas::SparseRttMatrix store =
      meas::SparseRttMatrix::from_rtt_matrix(final_matrix);
  StateLegs legs{store, nodes, TimePoint{} + Duration::seconds(3600),
                 meas::DeltaPlanOptions{}, "legs"};
  run_state_legs(legs, r);
  kernel_legs(o.seed, r);
}

// ---- synthetic daemon ---------------------------------------------------------

namespace {

/// Traced daemon environment: times planning (nodes() returning to
/// scan_pairs starting), the scan itself and its off-CPU share, fsyncs and
/// journal bytes read through options.journal, and per-pair intervals from
/// the progress callback.
class TracedEnv : public meas::DaemonEnvironment {
 public:
  TracedEnv(meas::DaemonEnvironment& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  void advance_epoch(std::size_t epoch) override { inner_.advance_epoch(epoch); }
  std::vector<dir::Fingerprint> nodes() override {
    std::vector<dir::Fingerprint> n = inner_.nodes();
    nodes_at_ = now_s();
    return n;
  }
  meas::ScanReport scan_pairs(const std::vector<dir::Fingerprint>& nodes,
                              const meas::ParallelScanner::PairList& pairs,
                              meas::RttMatrix& epoch_matrix,
                              const meas::ScanOptions& options,
                              const meas::ScanProgress& progress) override {
    const double t0 = now_s(), c0 = thread_cpu_s();
    trace_.add("daemon.plan_ms", (t0 - nodes_at_) * 1e3);
    const std::size_t fsyncs0 =
        options.journal != nullptr ? options.journal->fsyncs() : 0;
    double last = t0;
    std::vector<double> probe_ms;
    probe_ms.reserve(pairs.size());
    const meas::ScanReport rep = inner_.scan_pairs(
        nodes, pairs, epoch_matrix, options,
        [&](std::size_t done, std::size_t total, const meas::PairResult& pr) {
          const double t = now_s();
          probe_ms.push_back((t - last) * 1e3);
          last = t;
          if (progress) progress(done, total, pr);
        });
    scan_end_ = now_s();
    const double wall = scan_end_ - t0, cpu = thread_cpu_s() - c0;
    trace_.add("daemon.scan_ms", wall * 1e3);
    trace_.add("daemon.scan_offcpu_ms", (wall - cpu) * 1e3);
    for (double p : probe_ms) trace_.add("engine.probe_ms", p);
    if (options.journal != nullptr) {
      trace_.count("journal.fsyncs",
                   static_cast<double>(options.journal->fsyncs() - fsyncs0));
      trace_.count("journal.bytes", file_bytes(options.journal->path()));
    }
    trace_.count("journal.pairs", static_cast<double>(pairs.size()));
    return rep;
  }

  /// When the last scan_pairs call returned (the checkpoint span's start).
  double scan_end() const { return scan_end_; }

 private:
  meas::DaemonEnvironment& inner_;
  Trace& trace_;
  double nodes_at_ = 0;
  double scan_end_ = 0;
};

struct DaemonSpec {
  std::size_t relays, epochs, budget;
  bool journal;
  double churn;
  /// Relays held out of epoch 0 that join later, so late epochs have new
  /// pairs to measure and publish.
  double initially_absent;
  /// Publish at every checkpoint into a PathServer that the readers query
  /// while the daemon runs (the serve workload). Otherwise the readers query
  /// the final store after the run, on the `ting query` path.
  bool live_serve;
};

DaemonSpec daemon_spec(const std::string& workload) {
  if (workload == "daemon_journal") return {1500, 2, 5000, true, 0.05, 0, false};
  if (workload == "daemon_6k") return {6000, 2, 200000, false, 0.05, 0, false};
  if (workload == "serve") return {600, 12, 0, false, 0.02, 0.1, true};
  throw std::runtime_error("not a daemon workload: " + workload);
}

scenario::SyntheticEnvOptions env_options(const DaemonSpec& spec,
                                          std::uint64_t seed) {
  scenario::SyntheticEnvOptions seo;
  seo.relays = spec.relays;
  seo.testbed.seed = seed;
  seo.churn.seed = seed;
  seo.churn.churn_rate = spec.churn;
  seo.churn.rejoin_rate = 0.5;
  seo.churn.initially_absent = spec.initially_absent;
  seo.samples = 50;
  return seo;
}

meas::DaemonOptions daemon_options(const DaemonSpec& spec, std::uint64_t seed,
                                   const std::string& dir) {
  meas::DaemonOptions opt;
  opt.epochs = spec.epochs;
  opt.budget = spec.budget;
  opt.out = dir + "/daemon.tingmx";
  opt.seed = seed;
  opt.half_cache = false;  // the synthetic backend builds no circuits
  opt.journal = spec.journal;
  opt.coverage_target = 0;
  opt.config_tag = "perfbench";
  opt.engine.quarantine.enabled = true;
  return opt;
}

serve::ServeOptions serve_options(std::uint64_t seed) {
  serve::ServeOptions so;
  so.candidates_per_length = 500;  // `ting serve` default
  so.seed = seed;
  return so;
}

/// Checks one epoch's ledger and accumulates its pair counts.
struct EpochLedger {
  std::uint64_t pairs = 0, unresolved = 0, planned = 0;
  std::size_t epochs = 0;
  void observe(const meas::EpochStats& s, Result& r) {
    r.check(ledger_ok(s.scan), "epoch " + std::to_string(s.epoch) +
                                   " ledger does not balance");
    pairs += s.scan.pairs_total;
    unresolved += perfbench::unresolved(s.scan);
    planned += s.plan.pairs.size();
    ++epochs;
  }
};

std::string store_digest(const meas::SparseRttMatrix& m) {
  Digest d;
  d.str(m.to_bin());
  return d.hex();
}

/// Digest of the final snapshot (relays and every pair's RTT bits) and of the
/// answers to a fixed set of probe queries.
std::map<std::string, std::string> serve_digests(const serve::PathServer& server) {
  const auto st = server.state();
  Digest snap, probes;
  const auto& nodes = st->snapshot.nodes();
  const std::size_t n = nodes.size();
  snap.u64(st->snapshot.epoch());
  for (const auto& fp : nodes) snap.bytes(fp.bytes().data(), fp.bytes().size());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) snap.f64(st->snapshot.rtt_raw(i, j));
  const auto circuit = [&probes](const serve::PathServer::Circuit& c) {
    for (const auto& fp : c.relays) probes.bytes(fp.bytes().data(), fp.bytes().size());
    probes.f64(c.rtt_ms);
  };
  for (std::size_t k = 0; k < 64 && n >= 2; ++k) {
    const auto& a = nodes[(k * 7) % n];
    const auto& b = nodes[(k * 13 + 5) % n];
    if (a == b) continue;
    probes.f64(server.rtt(a, b).value_or(-1));
    if (const auto d = server.best_detour(a, b); d.has_value()) {
      probes.bytes(d->via.bytes().data(), d->via.bytes().size());
      probes.f64(d->detour_ms);
      probes.u64(d->tiv ? 1 : 0);
    }
    for (const auto& c : server.fastest_through(a, 3)) circuit(c);
  }
  for (const auto& c : server.circuits_in_band(3, 50.0, 250.0, 8)) circuit(c);
  probes.f64(server.options_in_band(3, 50.0, 250.0));
  return {{"snapshot", snap.hex()}, {"probes", probes.hex()}};
}

/// The traced daemon-side layer metrics shared by the synthetic workloads.
void report_daemon_layers(const Trace& trace, Result& r) {
  r.layers.insert(r.counters.begin(), r.counters.end());
  const double jpairs = trace.counter("journal.pairs");
  r.layers["journal.fsyncs_per_pair"] =
      jpairs > 0 ? trace.counter("journal.fsyncs") / jpairs : 0;
  r.layers["journal.bytes_per_pair"] =
      jpairs > 0 ? trace.counter("journal.bytes") / jpairs : 0;
  for (const char* c : {"engine.circuits_built", "engine.half_cache_hits",
                        "engine.reseeds", "engine.retries"})
    r.layers[c] = 0;  // the synthetic backend runs no measurement engine
  const LatencySummary probe = summarize(trace.spans("engine.probe_ms"));
  r.layers["engine.probe_ms_p50"] = probe.p50;
  r.layers["engine.probe_ms_p99"] = probe.p99;
  probe.describe("engine.probe_ms", r.info);
  for (const char* s : {"scenario.topology_ms", "scenario.shard_construct_ms",
                        "daemon.plan_ms", "daemon.scan_ms",
                        "daemon.scan_offcpu_ms", "daemon.checkpoint_ms",
                        "serve.publish_ms"})
    r.layers[s] = median(trace.spans(s));
}

}  // namespace

void run_daemon(const Options& o, Result& r) {
  const DaemonSpec spec = daemon_spec(o.workload);
  const scenario::SyntheticEnvOptions seo = env_options(spec, o.seed);
  Trace trace;
  std::vector<double> setup_s, cpu_pp;
  Throughput pps;
  QueryStats queries;
  std::uint64_t pairs = 0, bad = 0;
  RepeatCheck repeat;
  std::string final_store;
  std::vector<dir::Fingerprint> final_nodes;
  TimePoint final_now;

  // Setup: the synthetic environment, and the serve workload's PathServer.
  const auto set_up = [&](std::optional<serve::PathServer>& server) {
    std::unique_ptr<scenario::SyntheticDaemonEnvironment> env;
    setup_s.push_back(on_fresh_thread([&] {
      env = std::make_unique<scenario::SyntheticDaemonEnvironment>(seo);
      if (spec.live_serve) server.emplace(serve_options(o.seed));
    }));
    return env;
  };

  // serve's readers run beside the daemon; the others query its final store.
  const double query_s = spec.live_serve ? 0 : kQueryS;
  iterate(o, o.seconds - query_s, r, [&](std::size_t k, bool traced) {
    const std::string dir = fresh_dir(k);
    std::optional<serve::PathServer> server;
    const std::unique_ptr<scenario::SyntheticDaemonEnvironment> env =
        set_up(server);
    TracedEnv traced_env(*env, trace);
    if (traced) {
      trace.add("scenario.topology_ms", env->world_construct_ms());
      trace.add("scenario.shard_construct_ms", setup_s.back() * 1e3);
    }
    const std::uint64_t reader_seed = o.seed * 1000 + k * kReaders;
    std::optional<QueryTraffic> traffic;
    if (server) traffic.emplace(*server, kReaders, spec.epochs, reader_seed);

    meas::DaemonOptions opt = daemon_options(spec, o.seed, dir);
    if (traced || server)
      opt.on_checkpoint = [&](const meas::SparseRttMatrix& m,
                              const std::vector<dir::Fingerprint>&,
                              const std::vector<dir::Fingerprint>& changed,
                              const meas::EpochStats& s) {
        const double h0 = now_s();
        if (traced)
          trace.add("daemon.checkpoint_ms", (h0 - traced_env.scan_end()) * 1e3);
        if (!server) return;
        traffic->durable(s.epoch);
        server->publish(m, s.epoch,
                        meas::ScanDaemon::epoch_clock(opt.epoch_interval, s.epoch),
                        changed);
        traffic->published();
        if (traced) trace.add("serve.publish_ms", (now_s() - h0) * 1e3);
      };
    meas::ScanDaemon daemon(traced ? static_cast<meas::DaemonEnvironment&>(
                                         traced_env)
                                   : *env,
                            opt);
    EpochLedger ledger;
    // The synthetic backend scans on this thread; the readers' CPU is not
    // the daemon's.
    const double c0 = thread_cpu_s(), t0 = now_s();
    const meas::DaemonReport rep =
        daemon.run([&](const meas::EpochStats& s) { ledger.observe(s, r); });
    const double t1 = now_s(), c1 = thread_cpu_s();
    note_peak_rss(r);
    if (traffic) traffic->stop();
    r.check(!rep.interrupted && ledger.epochs == spec.epochs,
            "daemon did not complete every epoch");
    if (server) {
      r.check(server->publishes() == spec.epochs,
              "publishes != epochs: an epoch was never published");
      r.info["publishes_missed"] += static_cast<double>(spec.epochs) -
                                    static_cast<double>(server->publishes());
    }

    const double n = static_cast<double>(ledger.pairs);
    pps.add(traced, n / (t1 - t0));
    if (!traced) cpu_pp.push_back((c1 - c0) * 1e3 / n);
    pairs += ledger.pairs;
    bad += ledger.unresolved;
    repeat.observe(
        r,
        server ? serve_digests(*server)
               : std::map<std::string, std::string>{
                     {"store", store_digest(daemon.matrix())}},
        {{"planner.pairs_planned", static_cast<double>(ledger.planned)},
         {"store.pairs", static_cast<double>(daemon.matrix().size())}});
    final_store = opt.out;
    final_nodes = env->nodes();
    final_now = meas::ScanDaemon::epoch_clock(opt.epoch_interval, spec.epochs);
    if (traffic) queries.add(*traffic, traced);
  });
  if (!spec.live_serve)
    query_store(final_store, query_s, o.seed * 1000, o.trace, trace, queries);
  const double top_up0 = now_s();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kSetupReps && now_s() - top_up0 < kSetupTopUpS)) {
    std::optional<serve::PathServer> server;
    (void)set_up(server);
  }

  report_common(setup_s, pps, cpu_pp, pairs, bad, r);
  queries.report(r);

  if (!o.trace) return;
  report_daemon_layers(trace, r);
  const meas::SparseRttMatrix loaded =
      meas::SparseRttMatrix::load_bin(final_store);
  run_state_legs(StateLegs{loaded, final_nodes, final_now,
                           {meas::DaemonOptions{}.ttl, spec.budget}, "legs"},
                 r);
  kernel_legs(o.seed, r);
}

}  // namespace perfbench
