#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "bench.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

template <typename Map, typename Fmt>
std::string object(const Map& m, Fmt fmt) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ", ") + quoted(k) + ": " + fmt(v);
    first = false;
  }
  return out + "}";
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double tail_percentile(std::size_t n) {
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0})
    if (static_cast<double>(n) * (1 - p / 100) >= 10) return p;
  return 0;
}

void LatencySample::merge_into(std::vector<double>& out) const {
  out.insert(out.end(), kept_.begin(), kept_.end());
}

void Trace::add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[name].push_back(v);
}

void Trace::count(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += v;
}

std::vector<double> Trace::spans(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(name);
  return it == spans_.end() ? std::vector<double>{} : it->second;
}

double Trace::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

LatencySummary summarize(std::vector<double> v, double scale) {
  LatencySummary s;
  s.count = static_cast<double>(v.size());
  s.tail_pct = tail_percentile(v.size());
  s.p50 = quantile(v, 0.5) * scale;
  s.p99 = quantile(v, 0.99) * scale;
  s.tail = s.tail_pct > 0 ? quantile(v, s.tail_pct / 100) * scale : 0;
  return s;
}

void LatencySummary::describe(const std::string& name,
                              std::map<std::string, double>& info) const {
  info[name + ".count"] = count;
  info[name + ".tail_pct"] = tail_pct;
  info[name + ".tail"] = tail;
}

std::string Result::to_json() const {
  const auto num = [](double v) { return number(v); };
  std::string out = "{";
  out += "\"iterations\": " + std::to_string(iterations);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"e2e\": " + object(e2e, num);
  out += ", \"info\": " + object(info, num);
  out += ", \"counters\": " + object(counters, num);
  out += ", \"layers\": " + object(layers, num);
  out += ", \"digests\": " + object(digests, quoted);
  out += ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i)
    out += (i ? ", " : "") + quoted(violations[i]);
  return out + "]}";
}

}  // namespace perfbench
