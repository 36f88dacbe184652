#include "ting/rtt_matrix.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "ting/bin_codec.h"
#include "util/assert.h"
#include "util/atomic_file.h"
#include "util/bytes.h"

namespace ting::meas {

using binfmt::get_fp;
using binfmt::get_u32le;
using binfmt::get_u64le;
using binfmt::put_fp;
using binfmt::put_u32le;
using binfmt::put_u64le;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  TING_CHECK_MSG(f.good(), "cannot open " << path);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

}  // namespace

RttMatrix::Key RttMatrix::key(const dir::Fingerprint& a,
                              const dir::Fingerprint& b) {
  return a < b ? Key{a, b} : Key{b, a};
}

bool RttMatrix::fresher(const Entry& l, const Entry& r) {
  if (l.measured_at != r.measured_at) return l.measured_at > r.measured_at;
  const std::uint64_t lb = std::bit_cast<std::uint64_t>(l.rtt_ms);
  const std::uint64_t rb = std::bit_cast<std::uint64_t>(r.rtt_ms);
  if (lb != rb) return lb > rb;
  return l.samples > r.samples;
}

void RttMatrix::set(const dir::Fingerprint& a, const dir::Fingerprint& b,
                    double rtt_ms, TimePoint measured_at, int samples) {
  TING_CHECK_MSG(!(a == b), "RttMatrix: self-pairs are not meaningful");
  entries_.insert_or_assign(key(a, b), Entry{rtt_ms, measured_at, samples});
}

const RttMatrix::Entry* RttMatrix::entry(const dir::Fingerprint& a,
                                         const dir::Fingerprint& b) const {
  auto it = entries_.find(key(a, b));
  if (it == entries_.end()) return nullptr;
  return &it->second;
}

std::optional<double> RttMatrix::rtt(const dir::Fingerprint& a,
                                     const dir::Fingerprint& b) const {
  const Entry* e = entry(a, b);
  if (e == nullptr) return std::nullopt;
  return e->rtt_ms;
}

bool RttMatrix::contains(const dir::Fingerprint& a,
                         const dir::Fingerprint& b) const {
  return entry(a, b) != nullptr;
}

bool RttMatrix::is_fresh(const dir::Fingerprint& a, const dir::Fingerprint& b,
                         TimePoint now, Duration max_age) const {
  const Entry* e = entry(a, b);
  return e != nullptr && now - e->measured_at <= max_age;
}

void RttMatrix::merge(const RttMatrix& other) {
  reserve_pairs(entries_.size() + other.entries_.size());
  for (const auto& [k, v] : other.entries_) {
    const auto it = entries_.find(k);
    if (it == entries_.end())
      entries_.emplace(k, v);
    else if (fresher(v, it->second))
      it->second = v;
  }
}

void RttMatrix::absorb(const RttMatrix& results, TimePoint stamp) {
  for (const auto& [k, v] : results.entries_)
    entries_.insert_or_assign(k, Entry{v.rtt_ms, stamp, v.samples});
}

std::size_t RttMatrix::erase_relay(const dir::Fingerprint& relay) {
  return std::erase_if(entries_, [&](const auto& kv) {
    return kv.first.a == relay || kv.first.b == relay;
  });
}

void RttMatrix::reserve_pairs(std::size_t pairs) {
  entries_.max_load_factor(kMaxLoadFactor);
  entries_.reserve(pairs);
}

std::size_t RttMatrix::memory_bytes() const {
  // libstdc++ hash nodes carry a next pointer plus a cached hash alongside
  // the payload; the bucket array is one pointer per bucket.
  constexpr std::size_t kHashNodeOverhead = 2 * sizeof(void*);
  return entries_.size() *
             (sizeof(std::pair<const Key, Entry>) + kHashNodeOverhead) +
         entries_.bucket_count() * sizeof(void*);
}

std::vector<std::pair<RttMatrix::Key, RttMatrix::Entry>>
RttMatrix::sorted_items() const {
  std::vector<std::pair<Key, Entry>> items(entries_.begin(), entries_.end());
  std::sort(items.begin(), items.end(),
            [](const auto& l, const auto& r) {
              if (l.first.a != r.first.a) return l.first.a < r.first.a;
              return l.first.b < r.first.b;
            });
  return items;
}

std::vector<dir::Fingerprint> RttMatrix::nodes() const {
  std::set<dir::Fingerprint> uniq;
  for (const auto& [k, v] : entries_) {
    uniq.insert(k.a);
    uniq.insert(k.b);
  }
  return {uniq.begin(), uniq.end()};
}

std::vector<double> RttMatrix::values() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& [k, v] : sorted_items()) out.push_back(v.rtt_ms);
  return out;
}

double RttMatrix::mean_rtt() const {
  TING_CHECK_MSG(!entries_.empty(), "empty RTT matrix");
  double total = 0;
  for (const auto& [k, v] : sorted_items()) total += v.rtt_ms;
  return total / static_cast<double>(entries_.size());
}

RttMatrix::CoverageCount RttMatrix::coverage(
    const std::vector<dir::Fingerprint>& nodes, TimePoint now,
    Duration max_age) const {
  // Count over stored entries instead of probing all C(n,2) pairs: at 6,000
  // relays the all-pairs probe is 18M hash lookups per epoch, while the
  // store typically holds only what the budget has measured so far.
  CoverageCount c;
  c.total = nodes.size() * (nodes.size() - 1) / 2;
  const std::unordered_set<dir::Fingerprint> members(nodes.begin(),
                                                     nodes.end());
  for (const auto& [k, v] : entries_) {
    if (!members.contains(k.a) || !members.contains(k.b)) continue;
    if (now - v.measured_at <= max_age) {
      ++c.fresh;
    } else {
      ++c.stale;
    }
  }
  c.missing = c.total - c.fresh - c.stale;
  return c;
}

std::string RttMatrix::to_csv() const {
  std::ostringstream os;
  os << "fp_a,fp_b,rtt_ms,measured_at_ns,samples\n";
  for (const auto& [k, v] : sorted_items()) {
    os << k.a.hex() << "," << k.b.hex() << "," << v.rtt_ms << ","
       << v.measured_at.ns() << "," << v.samples << "\n";
  }
  return os.str();
}

RttMatrix RttMatrix::from_csv(const std::string& csv) {
  RttMatrix m;
  bool first = true;
  for (const std::string& line : split(csv, '\n')) {
    if (first) {
      first = false;
      continue;  // header
    }
    if (trim(line).empty()) continue;
    const auto cols = split(line, ',');
    TING_CHECK_MSG(cols.size() == 5, "bad RTT matrix row: " << line);
    // stod/stoll/stoi throw bare std::invalid_argument / std::out_of_range
    // on garbage; re-raise them as CheckError naming the offending line, and
    // reject trailing junk ("1.5x") they would silently accept.
    double rtt_ms = 0;
    long long at_ns = 0;
    int samples = 0;
    bool ok = false;
    try {
      std::size_t pos = 0;
      rtt_ms = std::stod(cols[2], &pos);
      if (pos == cols[2].size()) {
        at_ns = std::stoll(cols[3], &pos);
        if (pos == cols[3].size()) {
          samples = std::stoi(cols[4], &pos);
          ok = pos == cols[4].size();
        }
      }
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
    TING_CHECK_MSG(ok, "bad RTT matrix row: " << line);
    m.set(dir::Fingerprint::from_hex(cols[0]),
          dir::Fingerprint::from_hex(cols[1]), rtt_ms,
          TimePoint::from_ns(at_ns), samples);
  }
  return m;
}

void RttMatrix::save_csv(const std::string& path) const {
  // Crash-safe replacement: a reader never observes a torn matrix, and a
  // failed write (disk full, bad path) throws instead of silently losing
  // the dataset.
  atomic_write_file(path, to_csv());
}

RttMatrix RttMatrix::load_csv(const std::string& path) {
  return from_csv(read_file(path));
}

std::string RttMatrix::to_bin() const {
  std::string out;
  out.reserve(16 + entries_.size() * kBinRecordSize);
  out.append(kBinMagic, 8);
  put_u64le(out, entries_.size());
  for (const auto& [k, v] : sorted_items()) {
    put_fp(out, k.a);
    put_fp(out, k.b);
    put_u64le(out, std::bit_cast<std::uint64_t>(v.rtt_ms));
    put_u64le(out, static_cast<std::uint64_t>(v.measured_at.ns()));
    put_u32le(out, static_cast<std::uint32_t>(v.samples));
  }
  return out;
}

RttMatrix RttMatrix::from_bin(const std::string& bin) {
  TING_CHECK_MSG(bin.size() >= 16 && std::memcmp(bin.data(), kBinMagic, 8) == 0,
                 "sparse matrix: missing TINGSMX1 magic");
  const std::uint64_t count = get_u64le(bin, 8);
  TING_CHECK_MSG(bin.size() == 16 + count * kBinRecordSize,
                 "sparse matrix: truncated binary image ("
                     << bin.size() << " bytes for " << count << " records)");
  RttMatrix m;
  m.reserve_pairs(count);
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::size_t off = 16 + r * kBinRecordSize;
    const dir::Fingerprint a = get_fp(bin, off);
    const dir::Fingerprint b = get_fp(bin, off + 20);
    const double rtt_ms = std::bit_cast<double>(get_u64le(bin, off + 40));
    const auto at_ns = static_cast<std::int64_t>(get_u64le(bin, off + 48));
    const auto samples = static_cast<std::int32_t>(get_u32le(bin, off + 56));
    m.set(a, b, rtt_ms, TimePoint::from_ns(at_ns), samples);
  }
  return m;
}

void RttMatrix::save_bin(const std::string& path) const {
  atomic_write_file(path, to_bin());
}

RttMatrix RttMatrix::load_bin(const std::string& path) {
  return from_bin(read_file(path));
}

RttMatrix load_matrix_any(const std::string& path) {
  const std::string content = read_file(path);
  if (content.size() >= 8 &&
      std::memcmp(content.data(), RttMatrix::kBinMagic, 8) == 0)
    return RttMatrix::from_bin(content);
  return RttMatrix::from_csv(content);
}

}  // namespace ting::meas
