// Serving-layer throughput: path-selection queries answered concurrently
// with a live scan daemon publishing fresh snapshots every epoch.
//
// The daemon from daemon_bench runs against a churning testbed consensus;
// its checkpoint hook publishes each epoch's matrix into a PathServer
// (incremental detour-index patching when the changed set is small). While
// it runs, reader threads hammer the server with the §5 query mix — direct
// RTT, best TIV detour, fastest-k through a relay, band candidates — and we
// report queries/sec sustained *during* publication, then again against the
// quiescent final state. Writes BENCH_serve.json for CI to gate (floor:
// 10k concurrent queries/sec; see tools/bench_compare.py gate-serve).
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "scenario/daemon_world.h"
#include "serve/path_server.h"
#include "ting/daemon.h"
#include "util/rng.h"

namespace {

using namespace ting;

/// One pass of the mixed query workload against whatever state is current.
/// Returns the number of queries issued (0 while the server has nothing
/// published yet). The mix leans on the O(1)/O(log n) queries the way a
/// client population would, with an occasional fastest-k enumeration.
std::size_t query_round(const serve::PathServer& server, Rng& rng) {
  const auto st = server.state();
  if (st == nullptr) return 0;
  const auto& nodes = st->snapshot.nodes();
  if (nodes.size() < 2) return 0;
  const auto pick = [&] {
    return nodes[static_cast<std::size_t>(rng.next_below(nodes.size()))];
  };
  std::size_t issued = 0;
  const dir::Fingerprint a = pick();
  const dir::Fingerprint b = pick();
  (void)server.rtt(a, b);
  ++issued;
  (void)server.best_detour(a, b);
  ++issued;
  if (rng.chance(0.25)) {
    (void)server.circuits_in_band(3, 50.0, 250.0, 3);
    ++issued;
  }
  if (rng.chance(0.05)) {
    (void)server.fastest_through(a, 3);
    ++issued;
  }
  return issued;
}

}  // namespace

int main() {
  using namespace ting;
  using namespace ting::bench;
  header("Path server", "query throughput concurrent with daemon epochs");

  scenario::DaemonWorldOptions wo;
  wo.relays = static_cast<std::size_t>(scaled(60, 20));
  wo.testbed.seed = 432;
  wo.testbed.differential_fraction = 0;
  wo.ting.samples = scaled(50, 10);
  wo.churn.seed = 433;
  wo.churn.churn_rate = 0.05;
  wo.churn.rejoin_rate = 0.5;
  wo.churn.initially_absent = 0.1;
  scenario::TestbedDaemonEnvironment env(wo);

  meas::DaemonOptions d;
  d.epochs = static_cast<std::size_t>(scaled(6, 3));
  d.out = "BENCH_serve.tingmx";
  d.seed = 432;
  d.config_tag = "serve-bench";

  serve::ServeOptions so;
  so.candidates_per_length = static_cast<std::size_t>(scaled(1000, 200));
  so.seed = d.seed;
  serve::PathServer server(so);

  std::printf("# relays %zu, %.0f%% churn/epoch, %zu epochs, "
              "%zu candidates/length\n",
              wo.relays, wo.churn.churn_rate * 100, d.epochs,
              so.candidates_per_length);

  // Concurrent-phase bookkeeping: the readers only count queries issued
  // after the first publish, and the wall clock for the throughput figure
  // starts there too — before that there is nothing to serve.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> concurrent_queries{0};
  std::atomic<std::int64_t> first_publish_ns{0};
  const auto bench_t0 = std::chrono::steady_clock::now();
  const auto ns_since_start = [&bench_t0] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - bench_t0)
        .count();
  };

  d.on_checkpoint = [&](const meas::RttMatrix& m,
                        const std::vector<dir::Fingerprint>&,
                        const std::vector<dir::Fingerprint>& changed,
                        const meas::EpochStats& s) {
    const auto t_pub = std::chrono::steady_clock::now();
    server.publish(m, s.epoch,
                   meas::ScanDaemon::epoch_clock(d.epoch_interval, s.epoch),
                   changed);
    const double pub_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t_pub)
                              .count();
    std::int64_t expected = 0;
    first_publish_ns.compare_exchange_strong(expected, ns_since_start());
    const auto st = server.state();
    std::printf("%zu\t%zu\t%zu\t%.4f\t%zu\t%.2f\n", s.epoch,
                st->snapshot.node_count(), st->snapshot.pair_count(),
                st->snapshot.coverage(), changed.size(), pub_ms);
  };

  const unsigned kReaders = 2;
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      std::uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t got = query_round(server, rng);
        if (got == 0) {
          std::this_thread::yield();
          continue;
        }
        mine += got;
      }
      concurrent_queries.fetch_add(mine, std::memory_order_relaxed);
    });
  }

  std::printf("# epoch\tnodes\tpairs\tcoverage\tchanged\tpublish_ms\n");
  meas::ScanDaemon daemon(env, d);
  const meas::DaemonReport report = daemon.run();
  const std::int64_t end_ns = ns_since_start();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  const std::int64_t served_ns = end_ns - first_publish_ns.load();
  const double concurrent_wall_s =
      served_ns > 0 ? static_cast<double>(served_ns) * 1e-9 : 0;
  const double concurrent_qps =
      concurrent_wall_s > 0
          ? static_cast<double>(concurrent_queries.load()) / concurrent_wall_s
          : 0;
  std::printf("# %" PRIu64 " publishes; %" PRIu64
              " queries in %.2fs concurrent with the daemon — %.0f q/s\n",
              server.publishes(), concurrent_queries.load(), concurrent_wall_s,
              concurrent_qps);

  // ---- quiescent throughput: same mix, final state, no writer ------------
  const std::uint64_t post_target =
      static_cast<std::uint64_t>(scaled(200000, 20000));
  Rng post_rng(77);
  std::uint64_t post_queries = 0;
  const auto t_post = std::chrono::steady_clock::now();
  while (post_queries < post_target)
    post_queries += query_round(server, post_rng);
  const double post_wall_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t_post)
                                 .count();
  const double post_qps =
      post_wall_s > 0 ? static_cast<double>(post_queries) / post_wall_s : 0;
  std::printf("# quiescent: %" PRIu64 " queries in %.2fs — %.0f q/s\n",
              post_queries, post_wall_s, post_qps);

  const auto st = server.state();
  const double coverage = st != nullptr ? st->snapshot.coverage() : 0;
  const double tiv_fraction = st != nullptr ? st->detours.tiv_fraction() : 0;
  const std::size_t node_count = st != nullptr ? st->snapshot.node_count() : 0;

  std::FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"benchmark\": \"path_server\",\n"
                 "  \"relays\": %zu,\n"
                 "  \"epochs\": %zu,\n"
                 "  \"publishes\": %" PRIu64 ",\n"
                 "  \"nodes_served\": %zu,\n"
                 "  \"final_coverage\": %.4f,\n"
                 "  \"tiv_fraction\": %.4f,\n"
                 "  \"reader_threads\": %u,\n"
                 "  \"concurrent_queries\": %" PRIu64 ",\n"
                 "  \"concurrent_wall_s\": %.3f,\n"
                 "  \"concurrent_queries_per_sec\": %.0f,\n"
                 "  \"quiescent_queries\": %" PRIu64 ",\n"
                 "  \"quiescent_wall_s\": %.3f,\n"
                 "  \"quiescent_queries_per_sec\": %.0f\n"
                 "}\n",
                 wo.relays, d.epochs, server.publishes(), node_count, coverage,
                 tiv_fraction, kReaders, concurrent_queries.load(),
                 concurrent_wall_s, concurrent_qps, post_queries, post_wall_s,
                 post_qps);
    std::fclose(json);
    std::printf("# wrote BENCH_serve.json\n");
  }
  return report.converged && server.publishes() > 0 ? 0 : 1;
}
