// Shared plumbing for the Ting benchmark binary: clocks, the latency
// sample, per-layer span statistics, digests, and the flat result record
// every workload fills in and main() prints as one JSON object.
//
// Tracing here means spans recorded by this binary around calls into the
// library's public seams (decorators and hooks); nothing inside src/ is
// instrumented. With tracing off no decorator is installed at all.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- clocks -----------------------------------------------------------------

/// Monotonic wall clock, seconds.
double now_s();
/// CPU time of the whole process / of the calling thread, seconds.
double process_cpu_s();
double thread_cpu_s();
/// Peak resident set of the process, MB.
double peak_rss_mb();

// ---- samples and percentiles ------------------------------------------------

/// Quantile q in [0, 1] of `v` (sorted in place), linear interpolation.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// The highest percentile in {99.99, 99.9, 99, 90, 50} that still has at
/// least ten samples beyond it, for `n` samples (0 when n < 20).
double tail_percentile(std::size_t n);

/// A systematic sample of per-operation latencies (ns): every kStride-th
/// value is kept, so samples of windows of any length pool with the same
/// weight per operation, at 4 bytes per kStride operations.
class LatencySample {
 public:
  static constexpr std::size_t kStride = 64;
  void add(std::uint32_t ns) {
    if (seen_++ % kStride == 0) kept_.push_back(ns);
  }
  std::size_t seen() const { return seen_; }
  void merge_into(std::vector<double>& out) const;

 private:
  std::size_t seen_ = 0;
  std::vector<std::uint32_t> kept_;
};

// ---- per-layer spans --------------------------------------------------------

/// Span durations and counters recorded by the traced iterations, keyed by
/// metric name (the unit is part of the name: `_ms`, `_us`, ...).
/// Thread-safe: shard worker threads record into the same instance.
class Trace {
 public:
  void add(const std::string& name, double v);
  void count(const std::string& name, double v);
  /// Values recorded under `name` (empty when none).
  std::vector<double> spans(const std::string& name) const;
  double counter(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> spans_;
  std::map<std::string, double> counters_;
};

// ---- digests ----------------------------------------------------------------

/// 64-bit FNV-1a over a byte stream, for golden output digests.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- the result record ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shard count override for the scan workload (the self-check runs W=1
  /// against the default W=2 to prove the matrix digest shard-invariant).
  std::size_t shards = 2;
};

/// What one workload process reports. Values are raw measurements; the
/// Python front end turns them into the result line.
struct Result {
  std::size_t iterations = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end values by metric name (see BENCHMARK.json).
  std::map<std::string, double> e2e;
  /// Extra end-to-end context (sample counts, tail percentiles, ...).
  std::map<std::string, double> info;
  /// Deterministic work counters: identical at a fixed seed.
  std::map<std::string, double> counters;
  /// Per-layer metrics (traced run only).
  std::map<std::string, double> layers;
  /// Golden digests of the outputs.
  std::map<std::string, std::string> digests;
  /// Correctness checks that failed (empty = correct).
  std::vector<std::string> violations;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  std::string to_json() const;
};

/// p50, p99 and the highest percentile with at least ten samples beyond it
/// (tail_pct), each scaled by `scale`, plus the sample count.
struct LatencySummary {
  double p50 = 0, p99 = 0, tail = 0, tail_pct = 0, count = 0;
  /// Records `<name>.count`, `<name>.tail_pct` and `<name>.tail` in `info`.
  void describe(const std::string& name,
                std::map<std::string, double>& info) const;
};
LatencySummary summarize(std::vector<double> v, double scale = 1);

// ---- workloads and layer legs -----------------------------------------------

void run_scan(const Options& o, Result& r);
/// daemon_journal, daemon_6k and serve: one synthetic-daemon workload body.
void run_daemon(const Options& o, Result& r);

}  // namespace perfbench
