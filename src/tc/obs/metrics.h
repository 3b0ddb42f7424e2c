#ifndef TC_OBS_METRICS_H_
#define TC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tc::obs {

/// Global runtime switch. When disabled, Counter::Increment, Gauge::Set and
/// Histogram::Record become single-relaxed-load no-ops — the "registry
/// compiled out" baseline the overhead micro-bench compares against.
/// Enabled by default.
void SetEnabled(bool enabled);

namespace detail {
extern std::atomic<bool> g_enabled;
inline bool EnabledFast() {
  return g_enabled.load(std::memory_order_relaxed);
}
/// Microseconds since the first call in this process (steady clock — host
/// time for latency measurement; simulated Timestamps are recorded by the
/// caller passing deltas straight to Histogram::Record).
uint64_t SteadyNowUs();
}  // namespace detail

/// Monotonic counter. Relaxed atomic; safe from any thread.
///
/// Snapshot-vs-Reset semantics (shared by Gauge and Histogram): Value() /
/// Snapshot() taken concurrently with writers sees each atomic at some
/// point in time — never a torn value — but a Reset() racing a snapshot
/// may land between two metrics (or, for Histogram, between the buckets
/// and the sum), so *cross-field* totals can skew transiently. This is
/// by design: Reset is a bench/test isolation tool, not a production
/// operation, and export-under-load must stay wait-free for writers.
/// The invariants exports MAY rely on, even under concurrent writes:
/// every individual value is a real value some writer produced (no tears),
/// counters are monotone between resets, and a Histogram snapshot's
/// per-bucket counts never exceed what writers recorded. The invariant
/// they may NOT rely on: sum/count/bucket totals agreeing exactly with
/// each other while writers or Reset are mid-flight (a histogram's count
/// is derived from its buckets at snapshot time, so count and buckets at
/// least always agree with each other).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (!detail::EnabledFast()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Increment that bypasses the global enable switch — for registries
  /// whose *product* is the recorded flow (e.g. the per-cell telemetry
  /// registries FleetRunner ships), mirroring Histogram::RecordAlways.
  void IncrementAlways(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-writer-wins gauge (e.g. queue depth, flash program count).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!detail::EnabledFast()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (!detail::EnabledFast()) return;
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  /// Set that bypasses the global enable switch (see
  /// Counter::IncrementAlways).
  void SetAlways(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Read-side view of a Histogram; supports percentile extraction and
/// before/after deltas (Minus) so harnesses can scope a measurement to one
/// run against the long-lived global registry.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;

  /// Value at quantile `p` in [0, 1]: the upper bound of the bucket holding
  /// the rank-`ceil(p*count)` sample. Conservative (never underestimates)
  /// with relative error bounded by the bucket width (<= 25%; see
  /// Histogram). Returns 0 for an empty snapshot. The p == 1.0 quantile
  /// reports the exactly-tracked max.
  double Percentile(double p) const;
  double Mean() const { return count == 0 ? 0.0 : double(sum) / count; }

  /// this - before, field-wise (for deltas over a measured region). `max`
  /// cannot be un-merged, so the delta keeps this snapshot's max; treat it
  /// as "max over the whole registry lifetime".
  HistogramSnapshot Minus(const HistogramSnapshot& before) const;
};

/// Fixed-bucket log-scale latency histogram.
///
/// Bucket layout (HdrHistogram-style, 2 sub-bucket bits): values 0..3 get
/// exact buckets; from 4 up, each power-of-two octave is split into 4
/// linear sub-buckets, so a bucket spans at most a 5/4 ratio — percentile
/// error is bounded at 25% of the value, with 256 buckets covering the full
/// uint64 range. Recording is wait-free: one relaxed fetch_add each for the
/// bucket and the sum, plus a load-then-CAS for max (the CAS is skipped on
/// the common non-record-breaking path). There is no separate count cell —
/// a snapshot's count is the sum of its bucket counts, which also removes
/// one atomic RMW from every record on the per-operation tracing path.
///
/// Unit is whatever the caller records — microseconds everywhere in this
/// code base.
class Histogram {
 public:
  static constexpr size_t kSubBucketBits = 2;  // 4 sub-buckets per octave.
  static constexpr size_t kBucketCount = 256;  // Covers all of uint64.

  void Record(uint64_t value);

  /// Record that bypasses the global enable switch. For measurement
  /// apparatus whose *product* is the recorded distribution (e.g.
  /// FleetRunner's report latencies): such histograms must fill even when
  /// the instrumentation registry is switched off, or the harness's own
  /// output would change with the obs mode. Same wait-free race semantics
  /// as Record.
  void RecordAlways(uint64_t value);

  HistogramSnapshot Snapshot() const;
  /// Snapshot into a caller-owned buffer, reusing its bucket vector's
  /// capacity — the alloc-free path for periodic snapshotters (the
  /// telemetry shipper re-snapshots the same registry every frame).
  void SnapshotInto(HistogramSnapshot* out) const;
  void Reset();

  /// Bucket index a value maps to, and the inclusive value range of a
  /// bucket (exposed for the bucket-boundary tests).
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);

 private:
  std::atomic<uint64_t> buckets_[kBucketCount]{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Consistent-enough snapshot of a whole registry (each metric is read
/// atomically; cross-metric skew is possible under concurrent writes).
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Mergeable telemetry delta (defined in obs/telemetry.h).
struct TelemetryDelta;

/// Serializes an already-taken snapshot — same JSON shape as
/// MetricRegistry::ToJson, usable on a snapshot captured atomically with
/// other state (e.g. inside a flight-recorder dump).
std::string ToJson(const RegistrySnapshot& snapshot);

/// Appends `s` as the body of a JSON string literal: quote/backslash
/// escaped, control characters as \n-style shorthands or \u00XX. Shared by
/// every exporter that writes caller-chosen names into JSON, so a metric or
/// span named "a\"b" can never produce unparseable output.
void AppendJsonEscaped(std::string* out, std::string_view s);
std::string JsonEscape(std::string_view s);

/// Thread-safe name -> metric registry. Lookup takes a shared lock and
/// returns a reference that stays valid for the registry's lifetime —
/// instrumented components resolve their handles once (at construction)
/// and the hot path touches only the relaxed atomics inside the metric.
class MetricRegistry {
 public:
  /// Process-wide default registry used by all instrumented subsystems.
  static MetricRegistry& Global();

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  RegistrySnapshot Snapshot() const;
  /// Snapshot into a caller-owned buffer, reusing its map nodes and bucket
  /// vectors (metrics are never unregistered, so entries only accrete).
  /// Intended for repeated snapshots of the SAME registry — a buffer that
  /// previously snapshotted another registry keeps that registry's entries.
  void SnapshotInto(RegistrySnapshot* snap) const;

  /// Mergeable delta of everything recorded since `baseline` (an earlier
  /// Snapshot() of this registry). Defined in obs/telemetry.cc; see
  /// obs/telemetry.h for the delta/merge contract.
  TelemetryDelta Delta(const RegistrySnapshot& baseline) const;

  /// Compact JSON: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count":..,"sum":..,"max":..,"p50":..,"p95":..,"p99":..}}}.
  std::string ToJson() const;

  /// Zeroes every registered metric (names stay registered, references
  /// stay valid). For bench/test isolation only — racy against concurrent
  /// writers by design.
  void ResetAll();

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII host-latency timer: records elapsed steady-clock microseconds into
/// `histogram` at scope exit. A null histogram makes it a no-op (the
/// pattern for optionally-instrumented call sites).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram),
        start_us_(histogram ? detail::SteadyNowUs() : 0) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(detail::SteadyNowUs() - start_us_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_us_;
};

/// Manual start/read counterpart of ScopedTimer for non-scoped intervals
/// (e.g. queue wait time measured across threads).
class Stopwatch {
 public:
  Stopwatch() : start_us_(detail::SteadyNowUs()) {}
  uint64_t ElapsedUs() const { return detail::SteadyNowUs() - start_us_; }
  uint64_t start_us() const { return start_us_; }

 private:
  uint64_t start_us_;
};

}  // namespace tc::obs

#endif  // TC_OBS_METRICS_H_
