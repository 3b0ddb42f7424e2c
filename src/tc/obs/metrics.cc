#include "tc/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <sstream>

namespace tc::obs {

namespace detail {

std::atomic<bool> g_enabled{true};

uint64_t SteadyNowUs() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace detail

void SetEnabled(bool enabled) {
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

// Highest index actually reachable: octave 63, sub-bucket 3.
static constexpr size_t kTopBucket = 4 * 62 + 3;  // 251.

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < 4) return static_cast<size_t>(value);
  size_t octave = static_cast<size_t>(std::bit_width(value)) - 1;  // >= 2.
  size_t sub = static_cast<size_t>(value >> (octave - kSubBucketBits)) & 3;
  return 4 * (octave - 1) + sub;
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < 4) return index;
  size_t octave = index / 4 + 1;
  uint64_t sub = index % 4;
  return (4 + sub) << (octave - kSubBucketBits);
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index >= kTopBucket) return ~0ull;
  return BucketLowerBound(index + 1) - 1;
}

void Histogram::Record(uint64_t value) {
  if (!detail::EnabledFast()) return;
  RecordAlways(value);
}

void Histogram::RecordAlways(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  SnapshotInto(&snap);
  return snap;
}

void Histogram::SnapshotInto(HistogramSnapshot* out) const {
  out->buckets.resize(kBucketCount);
  out->count = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    out->buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    out->count += out->buckets[i];
  }
  out->sum = sum_.load(std::memory_order_relaxed);
  out->max = max_.load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p >= 1.0) return static_cast<double>(max);
  p = std::max(p, 0.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * count));
  rank = std::clamp<uint64_t>(rank, 1, count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      // Upper bound of the bucket, clamped by the exactly-tracked max so a
      // tail quantile never exceeds any observed value.
      return static_cast<double>(
          std::min(Histogram::BucketUpperBound(i), max));
    }
  }
  return static_cast<double>(max);  // Unreachable: count = sum of buckets.
}

HistogramSnapshot HistogramSnapshot::Minus(
    const HistogramSnapshot& before) const {
  HistogramSnapshot out;
  out.count = count >= before.count ? count - before.count : 0;
  out.sum = sum >= before.sum ? sum - before.sum : 0;
  out.max = max;  // Max cannot be un-merged; documented in the header.
  out.buckets.resize(buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) {
    uint64_t b = i < before.buckets.size() ? before.buckets[i] : 0;
    out.buckets[i] = buckets[i] >= b ? buckets[i] - b : 0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // Never destroyed.
  return *registry;
}

namespace {

// Shared lookup-or-create over the three metric maps.
template <typename T>
T& GetOrCreate(std::shared_mutex& mu,
               std::map<std::string, std::unique_ptr<T>>& metrics,
               const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu);
    auto it = metrics.find(name);
    if (it != metrics.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu);
  auto [it, inserted] = metrics.try_emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<T>();
  return *it->second;
}

}  // namespace

Counter& MetricRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(mu_, counters_, name);
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(mu_, gauges_, name);
}

Histogram& MetricRegistry::GetHistogram(const std::string& name) {
  return GetOrCreate(mu_, histograms_, name);
}

RegistrySnapshot MetricRegistry::Snapshot() const {
  RegistrySnapshot snap;
  SnapshotInto(&snap);
  return snap;
}

void MetricRegistry::SnapshotInto(RegistrySnapshot* snap) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // The buffer is reused across snapshots of the same registry, whose key
  // set only grows — both maps sort identically, so walking them in
  // lockstep makes the steady state (identical key sets) zero lookups.
  auto c_it = snap->counters.begin();
  for (const auto& [name, counter] : counters_) {
    if (c_it == snap->counters.end() || c_it->first != name) {
      c_it = snap->counters.emplace_hint(c_it, name, 0);
    }
    c_it->second = counter->Value();
    ++c_it;
  }
  auto g_it = snap->gauges.begin();
  for (const auto& [name, gauge] : gauges_) {
    if (g_it == snap->gauges.end() || g_it->first != name) {
      g_it = snap->gauges.emplace_hint(g_it, name, 0);
    }
    g_it->second = gauge->Value();
    ++g_it;
  }
  auto h_it = snap->histograms.begin();
  for (const auto& [name, histogram] : histograms_) {
    if (h_it == snap->histograms.end() || h_it->first != name) {
      h_it = snap->histograms.emplace_hint(h_it, name, HistogramSnapshot{});
    }
    histogram->SnapshotInto(&h_it->second);
    ++h_it;
  }
}

std::string MetricRegistry::ToJson() const { return obs::ToJson(Snapshot()); }

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static const char* kHex = "0123456789abcdef";
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (u < 0x20) {
          out->append("\\u00");
          out->push_back(kHex[u >> 4]);
          out->push_back(kHex[u & 0xf]);
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

std::string ToJson(const RegistrySnapshot& snap) {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "" : ",") << '"' << JsonEscape(name) << "\":" << value;
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "" : ",") << '"' << JsonEscape(name) << "\":" << value;
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out << (first ? "" : ",") << '"' << JsonEscape(name)
        << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
        << ",\"max\":" << h.max << ",\"p50\":" << h.Percentile(0.50)
        << ",\"p95\":" << h.Percentile(0.95)
        << ",\"p99\":" << h.Percentile(0.99) << '}';
    first = false;
  }
  out << "}}";
  return out.str();
}

void MetricRegistry::ResetAll() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace tc::obs
