// RttMatrix — the all-pairs latency dataset Ting produces, and the one store
// that holds it, from a 31-node testbed scan to a daemon tracking a
// ~6,000-relay consensus (§5.3, ~18M unordered pairs).
//
// Measurements are stable over a week, so "taking measurements with Ting
// infrequently and caching them is sufficient" (§4.6): the store keeps each
// pair's RTT with its measurement stamp and sample count, answers freshness
// questions against a max-age TTL, and persists as the shareable CSV schema
// of the original project's published data and as a compact exact-bits
// binary image (TINGSMX1). Pairs are hash-indexed under a canonical
// unordered key, so lookups are O(1) and a partially-filled daemon store
// costs only what it holds; every serialization and aggregate walks the
// pairs in canonical order, so equal stores produce equal bytes.
//
// Two writes with different contracts: set() overwrites (a scan engine
// recording what it just measured), merge() is freshest-wins with a
// total-order tiebreak, so daemon epochs, shard fragments and replicated
// stores converge to the same matrix in any merge order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dir/fingerprint.h"
#include "util/time.h"

namespace ting::meas {

class RttMatrix {
 public:
  struct Entry {
    double rtt_ms = 0;
    TimePoint measured_at;
    int samples = 0;
  };

  /// Magic prefix of the binary format (8 bytes, no terminator on disk).
  static constexpr char kBinMagic[] = "TINGSMX1";
  /// Bytes per binary record: fp_a(20) fp_b(20) rtt_bits(8) at_ns(8)
  /// samples(4), little-endian fixed-width fields.
  static constexpr std::size_t kBinRecordSize = 60;

  /// Record a measurement (unordered pair; overwrites unconditionally —
  /// freshest-wins arbitration is merge()'s job).
  void set(const dir::Fingerprint& a, const dir::Fingerprint& b, double rtt_ms,
           TimePoint measured_at = {}, int samples = 0);

  std::optional<double> rtt(const dir::Fingerprint& a,
                            const dir::Fingerprint& b) const;
  const Entry* entry(const dir::Fingerprint& a,
                     const dir::Fingerprint& b) const;
  bool contains(const dir::Fingerprint& a, const dir::Fingerprint& b) const;
  /// A cached value is fresh if measured within `max_age` of `now`.
  bool is_fresh(const dir::Fingerprint& a, const dir::Fingerprint& b,
                TimePoint now, Duration max_age) const;

  /// Keep the fresher of the two entries for every pair. The winner is
  /// decided by a total order — (measured_at, rtt bit pattern, samples),
  /// larger wins — so merge is commutative and associative.
  void merge(const RttMatrix& other);

  /// Fold one scan epoch's results in, restamping every entry to `stamp`.
  /// The deterministic engine records zero timestamps (shard worlds have
  /// unrelated virtual clocks); the daemon owns the epoch clock, so it
  /// stamps results at absorption time and TTL decisions are identical
  /// whether an epoch ran uninterrupted or resumed after a crash.
  void absorb(const RttMatrix& results, TimePoint stamp);

  /// Drop every pair touching `relay` (it left the consensus for good, or
  /// its descriptor changed enough that old estimates are suspect).
  /// Returns the number of pairs dropped.
  std::size_t erase_relay(const dir::Fingerprint& relay);

  /// Call `f(a, b, entry)` for every stored pair (a < b), in unspecified
  /// order; use it only where the order cannot show.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [k, v] : entries_) f(k.a, k.b, v);
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Current entry-table load factor (capped at kMaxLoadFactor once
  /// reserve_pairs has pinned the policy).
  float load_factor() const { return entries_.load_factor(); }
  /// All distinct relays appearing in the matrix, sorted.
  std::vector<dir::Fingerprint> nodes() const;
  /// All recorded RTT values, in canonical pair order.
  std::vector<double> values() const;
  /// Mean RTT over all pairs — the µ of deanonymization Algorithm 1 —
  /// summed in canonical order (deterministic).
  double mean_rtt() const;

  /// Freshness census over the all-pairs set of `nodes`.
  struct CoverageCount {
    std::size_t total = 0;    ///< unordered pairs of `nodes`
    std::size_t fresh = 0;    ///< measured within `max_age` of `now`
    std::size_t stale = 0;    ///< measured, but expired
    std::size_t missing = 0;  ///< never measured
    double coverage() const {
      return total == 0 ? 1.0
                        : static_cast<double>(fresh) / static_cast<double>(total);
    }
  };
  CoverageCount coverage(const std::vector<dir::Fingerprint>& nodes,
                         TimePoint now, Duration max_age) const;

  /// Estimated heap footprint in bytes: hash-node payload + chaining
  /// overhead per entry, and the bucket pointer array. An estimate —
  /// allocator rounding is not modeled — but it moves with the store, which
  /// is what the daemon status lines and the 18M-entry bench profile need.
  std::size_t memory_bytes() const;

  /// Bulk-load rehash policy: pin the load factor and size the bucket array
  /// once up front instead of paying log2(n) incremental rehash storms while
  /// millions of records stream in (from_bin and merge call this; callers
  /// that fill via set() in a loop should too).
  void reserve_pairs(std::size_t pairs);

  /// Target load factor for the entry table. Below libstdc++'s default 1.0
  /// to keep lookup chains short, but high enough that the bucket array stays a minor term next to the
  /// 18M-entry node storage.
  static constexpr float kMaxLoadFactor = 0.9f;

  /// Plain copies, kept for callers written against the two-class API.
  RttMatrix to_rtt_matrix() const { return *this; }
  static RttMatrix from_rtt_matrix(const RttMatrix& m) { return m; }

  // ---- persistence ----------------------------------------------------------
  /// CSV with header "fp_a,fp_b,rtt_ms,measured_at_ns,samples" in canonical
  /// pair order. CSV prints 6 significant digits; the binary format is the
  /// exact-bits one. A repeated pair's last row wins.
  std::string to_csv() const;
  static RttMatrix from_csv(const std::string& csv);
  void save_csv(const std::string& path) const;
  static RttMatrix load_csv(const std::string& path);

  /// Compact binary image: kBinMagic, u64 record count, then fixed 60-byte
  /// records in canonical pair order. Doubles are IEEE-754 bit patterns, so
  /// save/load round-trips exactly and equal matrices serialize to equal
  /// bytes — the property the daemon's crash-resume check compares.
  std::string to_bin() const;
  static RttMatrix from_bin(const std::string& bin);
  void save_bin(const std::string& path) const;
  static RttMatrix load_bin(const std::string& path);

 private:
  struct Key {
    dir::Fingerprint a, b;  ///< canonical: a < b
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      const std::size_t ha = std::hash<dir::Fingerprint>{}(k.a);
      const std::size_t hb = std::hash<dir::Fingerprint>{}(k.b);
      return ha ^ (hb + 0x9e3779b97f4a7c15ULL + (ha << 6) + (ha >> 2));
    }
  };
  static Key key(const dir::Fingerprint& a, const dir::Fingerprint& b);
  /// True when `l` beats `r` under the merge total order.
  static bool fresher(const Entry& l, const Entry& r);
  /// Entries in canonical pair order — the deterministic iteration that
  /// every serialization and aggregate goes through.
  std::vector<std::pair<Key, Entry>> sorted_items() const;

  std::unordered_map<Key, Entry, KeyHash> entries_;
};

/// The daemon store's former name; one class holds every RTT dataset now.
using SparseRttMatrix = RttMatrix;

/// Load an RTT matrix of either format: sniffs the binary magic and falls
/// back to CSV. The analysis consumers (tiv / deanon / coords) and `ting
/// convert` call this so daemon binaries and scan CSVs are interchangeable
/// inputs.
RttMatrix load_matrix_any(const std::string& path);

}  // namespace ting::meas
