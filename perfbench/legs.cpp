#include "legs.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>

#include "cells/cell.h"
#include "crypto/chacha.h"
#include "crypto/hash.h"
#include "crypto/x25519.h"
#include "serve/detour_index.h"
#include "serve/path_server.h"
#include "simnet/event_loop.h"
#include "ting/scan_journal.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ting;

/// Tor's relay-cell payload size, the unit the onion layers crypt.
constexpr std::size_t kCellPayload = 509;
/// Each leg repeats up to kReps times, stopping early once kLegBudgetS has
/// passed (the 6,000-relay census takes seconds per call).
constexpr std::size_t kReps = 5;
constexpr double kLegBudgetS = 1.0;

/// Median over the repetitions of `body()`'s wall time divided by `ops`,
/// scaled to the requested unit.
template <typename Body>
double per_op(double ops, double scale, Body&& body) {
  std::vector<double> t;
  const double start = now_s();
  do {
    const double t0 = now_s();
    body();
    t.push_back((now_s() - t0) / ops * scale);
  } while (t.size() < kReps && now_s() - start < kLegBudgetS);
  return median(t);
}

template <typename Body>
double wall_ms(Body&& body) {
  return per_op(1, 1e3, body);
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

std::vector<std::pair<std::size_t, std::size_t>> random_pairs(
    Rng& rng, std::size_t n, std::size_t count) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (n < 2) return out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = rng.next_below(n);
    out.emplace_back(i, (i + 1 + rng.next_below(n - 1)) % n);
  }
  return out;
}

void store_legs(const StateLegs& legs, Result& r) {
  const meas::SparseRttMatrix& m = legs.store;
  const auto& nodes = legs.nodes;
  Rng rng(0x5708e);
  r.layers["store.pairs"] = static_cast<double>(m.size());
  r.layers["store.bytes_per_pair"] =
      m.empty() ? 0
                : static_cast<double>(m.memory_bytes()) /
                      static_cast<double>(m.size());

  const auto probes = random_pairs(rng, nodes.size(), 200000);
  std::size_t hits = 0;
  r.layers["store.lookup_ns"] =
      per_op(static_cast<double>(probes.size()), 1e9, [&] {
        hits = 0;
        for (const auto& [i, j] : probes)
          hits += m.contains(nodes[i], nodes[j]) ? 1 : 0;
      });
  r.info["store.lookup_hit_fraction"] =
      probes.empty() ? 0
                     : static_cast<double>(hits) /
                           static_cast<double>(probes.size());

  const auto inserts = random_pairs(rng, nodes.size(), 100000);
  r.layers["store.set_ns"] =
      per_op(static_cast<double>(inserts.size()), 1e9, [&] {
        meas::SparseRttMatrix fresh;
        for (const auto& [i, j] : inserts)
          fresh.set(nodes[i], nodes[j], 1.0, legs.now, 1);
      });

  r.layers["store.coverage_ms"] = per_op(1, 1e3, [&] {
    (void)m.coverage(nodes, legs.now, legs.plan.ttl);
  });
  const std::string path = legs.dir + "/store.tingmx";
  r.layers["store.save_ms"] = wall_ms([&] { m.save_bin(path); });
  r.layers["store.load_ms"] = wall_ms([&] {
    r.check(meas::SparseRttMatrix::load_bin(path).size() == m.size(),
            "store load leg lost pairs");
  });
}

void planner_legs(const StateLegs& legs, Result& r) {
  std::size_t planned = 0;
  r.layers["planner.census_ms"] = per_op(1, 1e3, [&] {
    planned = meas::plan_delta(legs.store, legs.nodes, legs.now, legs.plan)
                  .pairs.size();
  });
  r.info["planner.census_pairs"] = static_cast<double>(planned);
  meas::IncrementalDeltaPlanner planner;
  (void)planner.plan_delta_incremental(legs.store, legs.nodes, {}, legs.now,
                                       legs.plan);  // primes the backlog
  r.layers["planner.incremental_ms"] = per_op(1, 1e3, [&] {
    (void)planner.plan_delta_incremental(legs.store, legs.nodes, {}, legs.now,
                                         legs.plan);
  });
}

void journal_legs(const StateLegs& legs, Result& r) {
  // One record_pair per call on a fresh file: the fsync'd append a
  // journaled daemon pays per resolved pair.
  const std::string path = legs.dir + "/leg.journal";
  meas::ScanJournal journal(path, meas::ScanJournal::Mode::kFresh,
                            meas::ScanJournal::Meta{1, 1, legs.nodes.size()});
  Rng rng(0x10a);
  const auto pairs = random_pairs(rng, legs.nodes.size(), 200);
  std::vector<double> us;
  for (const auto& [i, j] : pairs) {
    meas::ScanJournal::PairRecord rec;
    rec.a = legs.nodes[i];
    rec.b = legs.nodes[j];
    rec.ok = true;
    rec.rtt_ms = 10;
    rec.samples = 50;
    const double t0 = now_s();
    journal.record_pair(rec);
    us.push_back((now_s() - t0) * 1e6);
  }
  r.layers["journal.record_us"] = median(us);
  journal.remove_file();
}

/// Serving-state legs; publish time and per-kind query latency come from
/// the workload's own publishes and readers.
void serve_legs(const StateLegs& legs, Result& r) {
  const meas::RttMatrix sub =
      best_covered_relays(legs.store.to_rtt_matrix(), kServeLegRelays);
  std::optional<serve::MatrixSnapshot> snap;
  r.layers["serve.snapshot_build_ms"] =
      wall_ms([&] { snap = serve::MatrixSnapshot::build(sub, 1, legs.now); });
  r.layers["serve.snapshot_mb"] =
      static_cast<double>(snap->memory_bytes()) / 1e6;
  std::optional<serve::DetourIndex> index;
  r.layers["serve.detour_build_ms"] =
      wall_ms([&] { index = serve::DetourIndex::build(*snap); });
  // A 2% changed-relay patch, the serve workload's churn.
  std::vector<std::size_t> changed;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, snap->node_count() / 50);
       ++i)
    changed.push_back(i);
  r.layers["serve.detour_update_ms"] =
      wall_ms([&] { index->update(*snap, changed); });

  serve::PathServer server;
  server.publish(sub, 1, legs.now);
  const int kStateLoads = 100000;
  r.layers["serve.state_load_ns"] = per_op(kStateLoads, 1e9, [&] {
    for (int i = 0; i < kStateLoads; ++i)
      if (server.state() == nullptr) r.check(false, "published state vanished");
  });
}

}  // namespace

meas::RttMatrix best_covered_relays(const meas::RttMatrix& m, std::size_t n) {
  const std::vector<dir::Fingerprint> nodes = m.nodes();
  if (nodes.size() <= n) return m;
  // Measured pairs per relay, read off the CSV rows "fp_a,fp_b,...".
  std::map<std::string, std::size_t> degree;
  const std::string csv = m.to_csv();
  std::size_t line = csv.find('\n');
  while (line != std::string::npos && line + 1 < csv.size()) {
    const std::size_t a = line + 1, b = csv.find(',', a) + 1;
    ++degree[csv.substr(a, b - 1 - a)];
    ++degree[csv.substr(b, csv.find(',', b) - b)];
    line = csv.find('\n', b);
  }
  std::vector<std::size_t> order(nodes.size()), pairs(nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
    pairs[i] = degree[nodes[i].hex()];
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return pairs[x] > pairs[y]; });
  order.resize(n);
  std::sort(order.begin(), order.end());
  meas::RttMatrix sub;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (const auto* e = m.entry(nodes[order[i]], nodes[order[j]]))
        sub.set(nodes[order[i]], nodes[order[j]], e->rtt_ms, e->measured_at,
                e->samples);
  return sub;
}

void run_state_legs(const StateLegs& legs, Result& r) {
  if (!std::filesystem::create_directory(legs.dir))
    throw std::runtime_error("leg directory " + legs.dir + " already exists");
  store_legs(legs, r);
  planner_legs(legs, r);
  journal_legs(legs, r);
  serve_legs(legs, r);
  std::filesystem::remove_all(legs.dir);
}

void kernel_legs(std::uint64_t seed, Result& r) {
  Rng rng(seed ^ 0xc0ffee);
  Bytes cell = random_bytes(rng, kCellPayload);
  crypto::Key key{};
  crypto::Nonce nonce{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.next_u64());

  const int kCells = 20000;
  crypto::ChaChaCipher cipher(key, nonce);
  r.layers["crypto.chacha_cell_ns"] = per_op(kCells, 1e9, [&] {
    for (int i = 0; i < kCells; ++i) cipher.apply(cell);
  });
  std::uint8_t acc = 0;
  r.layers["crypto.hash_cell_ns"] = per_op(kCells, 1e9, [&] {
    for (int i = 0; i < kCells; ++i) acc ^= crypto::hash(cell)[0];
  });

  const int kScalars = 100;
  std::vector<crypto::X25519Key> scalars(kScalars);
  for (auto& s : scalars)
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_u64());
  const crypto::X25519Key point = crypto::x25519_base(scalars[0]);
  r.layers["crypto.x25519_us"] = per_op(kScalars, 1e6, [&] {
    for (const auto& s : scalars) acc ^= crypto::x25519(s, point)[0];
  });

  r.layers["cells.codec_ns"] = per_op(kCells, 1e9, [&] {
    for (int i = 0; i < kCells; ++i) {
      const cells::Cell c = cells::Cell::make(
          static_cast<cells::CircuitId>(i + 1), cells::CellCommand::kRelay,
          Bytes(cell.begin(), cell.begin() + cells::kPayloadSize));
      Bytes wire = c.encode();
      acc ^= cells::Cell::decode(wire).payload[0];
      pool::recycle(std::move(wire));
    }
  });

  const int kEvents = 100000;
  std::vector<std::int64_t> delays_us(kEvents);
  for (auto& d : delays_us) d = static_cast<std::int64_t>(rng.next_below(1000000));
  r.layers["simnet.event_ns"] = per_op(kEvents, 1e9, [&] {
    simnet::EventLoop loop;
    std::size_t fired = 0;
    for (const std::int64_t d : delays_us)
      loop.schedule(Duration::micros(d), [&fired] { ++fired; });
    loop.run();
    acc ^= static_cast<std::uint8_t>(fired);
  });
  r.info["kernel.sink"] = acc;
}

}  // namespace perfbench
