// Property tests for RttMatrix: exact binary round-trips (including
// adversarial double bit patterns), byte-determinism of serialization,
// commutative/associative merge, TTL expiry as the delta planner reads it,
// CSV interop with the dense RttMatrix, and the load_matrix_any() format
// sniffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ting/delta_scan.h"
#include "ting/rtt_matrix.h"
#include "util/assert.h"
#include "util/rng.h"

namespace ting::meas {
namespace {

dir::Fingerprint fp(std::size_t i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%040zx", i);
  return dir::Fingerprint::from_hex(buf);
}

TimePoint at(std::int64_t s) { return TimePoint::from_ns(s * 1'000'000'000); }

/// A randomly filled matrix over `n` relays with ~half the pairs present.
RttMatrix random_matrix(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  RttMatrix m;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < 0.5) continue;
      m.set(fp(i), fp(j), rng.uniform() * 300.0,
            at(static_cast<std::int64_t>(rng.uniform_int(1, 1000000))),
            static_cast<int>(rng.uniform_int(1, 50)));
    }
  }
  return m;
}

bool same_entries(const RttMatrix& a, const RttMatrix& b) {
  return a.to_bin() == b.to_bin();
}

TEST(RttMatrixTest, SymmetricSetGet) {
  RttMatrix m;
  m.set(fp(1), fp(2), 42.5);
  EXPECT_EQ(m.rtt(fp(1), fp(2)), 42.5);
  EXPECT_EQ(m.rtt(fp(2), fp(1)), 42.5);
  EXPECT_FALSE(m.rtt(fp(1), fp(3)).has_value());
  EXPECT_TRUE(m.contains(fp(2), fp(1)));
  EXPECT_EQ(m.size(), 1u);
}

TEST(RttMatrixTest, RejectsSelfPairs) {
  RttMatrix m;
  EXPECT_THROW(m.set(fp(1), fp(1), 1.0), CheckError);
}

TEST(RttMatrixTest, OverwriteAndStats) {
  RttMatrix m;
  m.set(fp(1), fp(2), 10.0);
  m.set(fp(2), fp(1), 20.0);  // overwrite, symmetric key
  m.set(fp(1), fp(3), 40.0);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.mean_rtt(), 30.0);
  EXPECT_EQ(m.nodes().size(), 3u);
  EXPECT_EQ(m.values().size(), 2u);
}

TEST(RttMatrixTest, FreshnessWindow) {
  RttMatrix m;
  const TimePoint t0 = TimePoint::from_ns(0);
  m.set(fp(1), fp(2), 5.0, t0 + Duration::seconds(100), 10);
  EXPECT_TRUE(m.is_fresh(fp(1), fp(2),
                         t0 + Duration::seconds(150), Duration::seconds(60)));
  EXPECT_FALSE(m.is_fresh(fp(1), fp(2),
                          t0 + Duration::seconds(200), Duration::seconds(60)));
  EXPECT_FALSE(m.is_fresh(fp(1), fp(3), t0, Duration::seconds(60)));
}

TEST(RttMatrixTest, CsvRoundTrip) {
  RttMatrix m;
  m.set(fp(1), fp(2), 12.25, TimePoint::from_ns(777), 200);
  m.set(fp(3), fp(4), 99.5, TimePoint::from_ns(888), 100);
  const RttMatrix n = RttMatrix::from_csv(m.to_csv());
  EXPECT_EQ(n.size(), 2u);
  EXPECT_EQ(n.rtt(fp(2), fp(1)), 12.25);
  const auto* e = n.entry(fp(3), fp(4));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->measured_at.ns(), 888);
  EXPECT_EQ(e->samples, 100);
}

TEST(RttMatrixTest, CsvRejectsGarbage) {
  EXPECT_THROW(RttMatrix::from_csv("header\nnot,enough"), CheckError);
}

TEST(RttMatrixTest, CsvRejectsCorruptNumericFields) {
  const std::string a = fp(1).hex(), b = fp(2).hex();
  const std::string header = "fp_a,fp_b,rtt_ms,measured_at_ns,samples\n";
  // Non-numeric rtt: stod would throw std::invalid_argument; we want a
  // CheckError naming the row instead.
  EXPECT_THROW(RttMatrix::from_csv(header + a + "," + b + ",oops,777,200"),
               CheckError);
  // Trailing garbage after a valid prefix ("12.5x") must also be rejected.
  EXPECT_THROW(RttMatrix::from_csv(header + a + "," + b + ",12.5x,777,200"),
               CheckError);
  // Out-of-range timestamp (std::out_of_range from stoll).
  EXPECT_THROW(RttMatrix::from_csv(header + a + "," + b +
                                   ",12.5,99999999999999999999999999,200"),
               CheckError);
  // Non-numeric sample count.
  EXPECT_THROW(RttMatrix::from_csv(header + a + "," + b + ",12.5,777,many"),
               CheckError);
  // The error message should carry the offending line for debugging.
  try {
    RttMatrix::from_csv(header + a + "," + b + ",oops,777,200");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
  }
}

TEST(SparseRttMatrixTest, SetLookupAndCanonicalPairOrder) {
  RttMatrix m;
  m.set(fp(2), fp(1), 12.5, at(10), 3);
  EXPECT_EQ(m.size(), 1u);
  // The pair is unordered: both orientations see the same entry.
  ASSERT_TRUE(m.rtt(fp(1), fp(2)).has_value());
  EXPECT_DOUBLE_EQ(*m.rtt(fp(1), fp(2)), 12.5);
  EXPECT_DOUBLE_EQ(*m.rtt(fp(2), fp(1)), 12.5);
  EXPECT_TRUE(m.contains(fp(2), fp(1)));
  EXPECT_FALSE(m.contains(fp(1), fp(3)));
  const RttMatrix::Entry* e = m.entry(fp(1), fp(2));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->measured_at, at(10));
  EXPECT_EQ(e->samples, 3);
  // set() overwrites unconditionally, like RttMatrix::set.
  m.set(fp(1), fp(2), 9.0, at(5), 1);
  EXPECT_DOUBLE_EQ(*m.rtt(fp(1), fp(2)), 9.0);
  EXPECT_EQ(m.size(), 1u);
}

TEST(SparseRttMatrixTest, BinRoundTripIsExact) {
  const RttMatrix m = random_matrix(17, 12);
  ASSERT_GT(m.size(), 0u);
  const std::string bin = m.to_bin();
  EXPECT_EQ(bin.size(), 16 + m.size() * RttMatrix::kBinRecordSize);
  const RttMatrix back = RttMatrix::from_bin(bin);
  EXPECT_EQ(back.size(), m.size());
  // Equal data serializes to equal bytes (sorted record order).
  EXPECT_EQ(back.to_bin(), bin);
}

TEST(SparseRttMatrixTest, BinRoundTripsAdversarialDoubles) {
  // CSV's 6-significant-digit printing would destroy all of these; the
  // binary format must carry the exact bit patterns.
  const double values[] = {
      0.1 + 0.2,                                    // classic 0.30000000000000004
      1.0 / 3.0,
      std::nextafter(25.0, 26.0),                   // one ulp off a round value
      1e-300,                                       // subnormal-adjacent
      123456.789012345,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
  };
  RttMatrix m;
  std::size_t i = 0;
  for (const double v : values) m.set(fp(0), fp(++i), v, at(1), 1);
  const RttMatrix back = RttMatrix::from_bin(m.to_bin());
  i = 0;
  for (const double v : values) {
    const RttMatrix::Entry* e = back.entry(fp(0), fp(++i));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e->rtt_ms),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(SparseRttMatrixTest, BinRejectsCorruptInput) {
  const RttMatrix m = random_matrix(3, 6);
  std::string bin = m.to_bin();
  EXPECT_THROW(RttMatrix::from_bin(bin.substr(0, bin.size() - 1)),
               CheckError);
  std::string bad_magic = bin;
  bad_magic[0] = 'X';
  EXPECT_THROW(RttMatrix::from_bin(bad_magic), CheckError);
  EXPECT_THROW(RttMatrix::from_bin("short"), CheckError);
}

TEST(SparseRttMatrixTest, MergeIsCommutativeAndAssociative) {
  // Overlapping pair sets with conflicting entries: merge order must not
  // matter (freshest-wins with a total-order tiebreak).
  const RttMatrix a = random_matrix(101, 10);
  const RttMatrix b = random_matrix(202, 10);
  const RttMatrix c = random_matrix(303, 10);

  RttMatrix ab = a;
  ab.merge(b);
  RttMatrix ba = b;
  ba.merge(a);
  EXPECT_TRUE(same_entries(ab, ba));

  RttMatrix ab_c = ab;
  ab_c.merge(c);
  RttMatrix bc = b;
  bc.merge(c);
  RttMatrix a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(same_entries(ab_c, a_bc));
}

TEST(SparseRttMatrixTest, MergeTiebreaksEqualTimestamps) {
  // Same pair, same timestamp, different values: the winner must be the
  // same regardless of merge direction (rtt bit pattern breaks the tie).
  RttMatrix x, y;
  x.set(fp(1), fp(2), 10.0, at(5), 1);
  y.set(fp(1), fp(2), 20.0, at(5), 1);
  RttMatrix xy = x;
  xy.merge(y);
  RttMatrix yx = y;
  yx.merge(x);
  EXPECT_EQ(xy.to_bin(), yx.to_bin());
  EXPECT_DOUBLE_EQ(*xy.rtt(fp(1), fp(2)), 20.0);  // larger bits win
}

TEST(SparseRttMatrixTest, MergePrefersFresher) {
  RttMatrix old_m, new_m;
  old_m.set(fp(1), fp(2), 50.0, at(5), 9);
  new_m.set(fp(1), fp(2), 60.0, at(6), 1);
  old_m.merge(new_m);
  EXPECT_DOUBLE_EQ(*old_m.rtt(fp(1), fp(2)), 60.0);
}

TEST(SparseRttMatrixTest, AbsorbRestampsDenseResults) {
  RttMatrix dense;
  dense.set(fp(1), fp(2), 30.0, TimePoint{}, 5);  // deterministic scans stamp 0
  dense.set(fp(2), fp(3), 40.0, TimePoint{}, 5);
  RttMatrix m;
  m.set(fp(0), fp(1), 10.0, at(1), 1);
  m.absorb(dense, at(100));
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.entry(fp(1), fp(2))->measured_at, at(100));
  EXPECT_EQ(m.entry(fp(2), fp(3))->measured_at, at(100));
  EXPECT_EQ(m.entry(fp(0), fp(1))->measured_at, at(1));  // untouched
}

/// The store's expired pairs as the delta planner lists them: the tail of
/// an unbudgeted plan over every relay fp(0..n-1).
std::vector<std::pair<std::size_t, std::size_t>> expired_in_plan(
    const RttMatrix& m, std::size_t n, TimePoint now, Duration ttl) {
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(fp(i));
  const DeltaPlan plan = plan_delta(m, nodes, now, DeltaPlanOptions{ttl, 0});
  return {plan.pairs.end() - static_cast<std::ptrdiff_t>(plan.expired_pairs),
          plan.pairs.end()};
}

TEST(SparseRttMatrixTest, ExpiredPairsOldestFirst) {
  RttMatrix m;
  m.set(fp(1), fp(2), 1.0, at(10), 1);
  m.set(fp(3), fp(4), 2.0, at(30), 1);
  m.set(fp(5), fp(6), 3.0, at(20), 1);
  m.set(fp(7), fp(8), 4.0, at(95), 1);  // fresh at now=100, ttl=10
  const auto expired = expired_in_plan(m, 9, at(100), Duration::seconds(10));
  using P = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(expired, (std::vector<P>{{1, 2}, {5, 6}, {3, 4}}));
}

TEST(SparseRttMatrixTest, CoverageCensus) {
  RttMatrix m;
  m.set(fp(0), fp(1), 1.0, at(95), 1);  // fresh
  m.set(fp(0), fp(2), 2.0, at(10), 1);  // stale
  const std::vector<dir::Fingerprint> nodes = {fp(0), fp(1), fp(2)};
  const auto cc = m.coverage(nodes, at(100), Duration::seconds(10));
  EXPECT_EQ(cc.total, 3u);
  EXPECT_EQ(cc.fresh, 1u);
  EXPECT_EQ(cc.stale, 1u);
  EXPECT_EQ(cc.missing, 1u);
  EXPECT_DOUBLE_EQ(cc.coverage(), 1.0 / 3.0);
  // Degenerate node sets are fully covered by definition.
  EXPECT_DOUBLE_EQ(m.coverage({}, at(100), Duration::seconds(10)).coverage(),
                   1.0);
}

TEST(SparseRttMatrixTest, EraseRelayDropsAllTouchingPairs) {
  RttMatrix m = random_matrix(7, 8);
  const std::size_t before = m.size();
  std::size_t touching = 0;
  for (std::size_t j = 0; j < 8; ++j)
    if (j != 3 && m.contains(fp(3), fp(j))) ++touching;
  EXPECT_EQ(m.erase_relay(fp(3)), touching);
  EXPECT_EQ(m.size(), before - touching);
  for (std::size_t j = 0; j < 8; ++j) EXPECT_FALSE(m.contains(fp(3), fp(j)));
}

/// The entries of `m` in an ordered map: the reference for canonical order.
std::map<std::pair<dir::Fingerprint, dir::Fingerprint>, RttMatrix::Entry>
ordered_entries(const RttMatrix& m) {
  std::map<std::pair<dir::Fingerprint, dir::Fingerprint>, RttMatrix::Entry> ref;
  m.for_each([&](const dir::Fingerprint& a, const dir::Fingerprint& b,
                 const RttMatrix::Entry& e) {
    EXPECT_LT(a, b);
    ref.emplace(std::make_pair(a, b), e);
  });
  EXPECT_EQ(ref.size(), m.size());
  return ref;
}

TEST(SparseRttMatrixTest, DenseInteropAndCsvSchema) {
  // Scans, the daemon and the analyses share this one store, so its CSV is
  // the published schema in canonical pair order. The reference is an
  // ordered map over the same pairs.
  const RttMatrix m = random_matrix(23, 9);
  std::ostringstream csv;
  csv << "fp_a,fp_b,rtt_ms,measured_at_ns,samples\n";
  for (const auto& [k, e] : ordered_entries(m)) {
    csv << k.first.hex() << "," << k.second.hex() << "," << e.rtt_ms << ","
        << e.measured_at.ns() << "," << e.samples << "\n";
  }
  EXPECT_EQ(m.to_csv(), csv.str());
  // CSV reparses to the same CSV, and the copy helpers are exact copies.
  EXPECT_EQ(RttMatrix::from_csv(m.to_csv()).to_csv(), m.to_csv());
  EXPECT_TRUE(same_entries(m.to_rtt_matrix(), m));
  EXPECT_TRUE(same_entries(RttMatrix::from_rtt_matrix(m), m));
}

TEST(SparseRttMatrixTest, AggregatesMatchDense) {
  // Aggregates walk the same canonical order as the CSV, so values() lines
  // up with it and mean_rtt() sums in that order.
  for (const auto& [seed, n] : {std::pair<std::uint64_t, std::size_t>{23, 9},
                                std::pair<std::uint64_t, std::size_t>{31, 7}}) {
    const RttMatrix m = random_matrix(seed, n);
    std::vector<double> values;
    std::set<dir::Fingerprint> nodes;
    double total = 0;
    std::size_t count = 0;
    for (const auto& [k, e] : ordered_entries(m)) {
      values.push_back(e.rtt_ms);
      nodes.insert(k.first);
      nodes.insert(k.second);
      total += e.rtt_ms;
      ++count;
    }
    EXPECT_EQ(m.values(), values);
    EXPECT_EQ(m.nodes(),
              std::vector<dir::Fingerprint>(nodes.begin(), nodes.end()));
    EXPECT_EQ(m.mean_rtt(), total / static_cast<double>(count));
  }
}

TEST(SparseRttMatrixTest, ExpiredPairsMatchBruteForceUnderRandomOps) {
  // The expired pairs the planner reads off the store must stay equivalent
  // to a reference map of stamps, through any interleaving of inserts,
  // overwrites, restamps, merges, and relay erasure.
  Rng rng(911);
  const std::size_t n = 14;
  RttMatrix m;
  std::map<std::pair<std::size_t, std::size_t>, std::int64_t> reference;
  const auto check = [&](std::int64_t now_s, std::int64_t ttl_s) {
    std::vector<std::tuple<std::int64_t, std::size_t, std::size_t>> want;
    for (const auto& [k, t] : reference)
      if (now_s - t > ttl_s) want.emplace_back(t, k.first, k.second);
    std::sort(want.begin(), want.end());
    const auto got =
        expired_in_plan(m, n, at(now_s), Duration::seconds(ttl_s));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].first, std::get<1>(want[k]));
      EXPECT_EQ(got[k].second, std::get<2>(want[k]));
      EXPECT_EQ(m.entry(fp(got[k].first), fp(got[k].second))->measured_at,
                at(std::get<0>(want[k])));
    }
  };
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 25; ++op) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      if (i == j) j = (j + 1) % n;
      const std::pair<std::size_t, std::size_t> key = std::minmax(i, j);
      const auto t = static_cast<std::int64_t>(rng.uniform_int(1, 200));
      m.set(fp(key.first), fp(key.second), rng.uniform() * 100.0, at(t), 1);
      reference[key] = t;
    }
    if (round % 7 == 3) {
      // Merge a batch in. merge() is freshest-wins, and the expiry check
      // only compares stamps, so the reference keeps the max stamp per pair
      // (the equal-stamp value tiebreak cannot change measured_at).
      RttMatrix other;
      for (int k = 0; k < 10; ++k) {
        const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        if (i == j) j = (j + 1) % n;
        const std::pair<std::size_t, std::size_t> key = std::minmax(i, j);
        const auto t = static_cast<std::int64_t>(rng.uniform_int(1, 200));
        other.set(fp(key.first), fp(key.second), 500.0 + k, at(t), 1);
        const auto it = reference.find(key);
        if (it == reference.end() || it->second < t) reference[key] = t;
      }
      m.merge(other);
    }
    if (round % 11 == 5) {
      const std::size_t victim = rng.uniform_int(0, n - 1);
      m.erase_relay(fp(victim));
      std::erase_if(reference, [&](const auto& kv) {
        return kv.first.first == victim || kv.first.second == victim;
      });
    }
    check(210, static_cast<std::int64_t>(rng.uniform_int(1, 220)));
  }
}

TEST(SparseRttMatrixTest, MemoryBytesAndReservePolicy) {
  RttMatrix m;
  const std::size_t empty_bytes = m.memory_bytes();
  m.reserve_pairs(5000);
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = i + 1; j < 100; ++j)
      if ((i + j) % 2 == 0) m.set(fp(i), fp(j), 1.0, at(1), 1);
  ASSERT_GT(m.size(), 2000u);
  const std::size_t full_bytes = m.memory_bytes();
  EXPECT_GT(full_bytes, empty_bytes);
  // The estimate should land in the right ballpark per entry: at least the
  // raw key+entry payload, and not wildly above it (the 18M-entry budget in
  // ROADMAP assumes a low-hundreds bytes/pair figure).
  const double per_pair =
      static_cast<double>(full_bytes) / static_cast<double>(m.size());
  EXPECT_GT(per_pair, 48.0);
  EXPECT_LT(per_pair, 512.0);
  EXPECT_LE(m.load_factor(), RttMatrix::kMaxLoadFactor + 0.01f);
}

TEST(SparseRttMatrixTest, SaveLoadAnySniffsFormat) {
  const RttMatrix m = random_matrix(5, 6);
  const std::string dir = ::testing::TempDir();
  const std::string bin_path = dir + "/sm_test.tingmx";
  const std::string csv_path = dir + "/sm_test.csv";
  m.save_bin(bin_path);
  m.save_csv(csv_path);

  const RttMatrix from_disk = RttMatrix::load_bin(bin_path);
  EXPECT_TRUE(same_entries(from_disk, m));

  const RttMatrix via_bin = load_matrix_any(bin_path);
  const RttMatrix via_csv = load_matrix_any(csv_path);
  // CSV rounds to 6 significant digits, so compare through CSV text (the
  // binary path must not lose anything the CSV path keeps).
  EXPECT_EQ(via_bin.to_csv(), m.to_csv());
  EXPECT_EQ(via_csv.to_csv(), RttMatrix::from_csv(m.to_csv()).to_csv());
}

}  // namespace
}  // namespace ting::meas
