// Shared apparatus of the repository benchmark: run options, the result
// record every workload fills, exact-sample statistics, the benchmark's own
// span recorder, registry/stat deltas, the host-jitter probe and the timing
// transport decorator.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tc/net/transport.h"
#include "tc/obs/metrics.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t trace = 0;   ///< Id of the root span of this request.
  const char* layer = "";
  const char* op = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `e2e` is reported when tracing is off,
/// `layers` when it is on; `lines` are human-readable report lines printed
/// before the JSON result.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::vector<std::string> lines;
  /// Traced run only: the benchmark spans and the registry before/after
  /// snapshots of the measured region, written out when the run ends.
  std::vector<SpanRecord> spans;
  std::string registry_json;

  /// Records an output-check failure; the run then exits non-zero.
  void CheckFailed(const std::string& what);
  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Every end-to-end metric (reported without tracing) and every per-layer
/// metric (reported by the traced run), as (name, unit). These lists and
/// BENCHMARK.json name the same metrics.
const std::vector<std::pair<std::string, std::string>>& E2eCatalogue();
const std::vector<std::pair<std::string, std::string>>& LayerCatalogue();
/// Puts every catalogued metric into `out` at 0, so each workload reports
/// the full set (a layer a workload does not cross stays 0).
void InitMetrics(Outcome* out);
/// Sets a catalogued metric; an unknown name aborts (a harness bug).
void SetE2e(Outcome* out, const std::string& name, double value);
void SetLayer(Outcome* out, const std::string& name, double value);

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile of exact samples (0 for an empty set).
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Tail estimate that is steady on a shared host: the samples are cut into
/// consecutive windows of `window` samples, and the median of the windows'
/// nearest-rank q-quantiles is returned. Falls back to the plain quantile
/// when there are fewer than three windows.
double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t window);


// ---- Benchmark spans (the traced run only) ----


/// In-memory span buffer. Recording is on only while `Tracer::Enabled()`;
/// a span opened on a thread parents every span opened inside it on the
/// same thread.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool Enabled();
  static uint64_t NowNs();
  static void Record(const SpanRecord& span);
  static std::vector<SpanRecord> Take();
};

/// RAII span; a no-op when tracing is off. A span made with `active`
/// false records nothing and also silences every span opened inside it on
/// the same thread (an untraced op stays wholly untraced).
class Span {
 public:
  Span(const char* layer, const char* op, bool active = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
  bool suppressing_ = false;
  SpanRecord rec_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_trace_ = 0;
};

/// Per-layer self time (span time minus the time its child spans cover),
/// summed over every span of that layer, in microseconds.
std::map<std::string, double> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans);
/// Mean self time of the spans named layer.op, in microseconds.
double MeanSelfUs(const std::vector<SpanRecord>& spans, const char* layer,
                  const char* op);
/// Checks every span's parent is present (or it is a root) and child spans
/// nest inside their parents; returns "" when sound, else the defect.
std::string ValidateSpans(const std::vector<SpanRecord>& spans);
/// Writes the spans as JSON to `path`; returns false on an I/O error.
bool ExportSpans(const std::vector<SpanRecord>& spans, const std::string& path);

// ---- Registry deltas ----

/// Before/after view of the process-wide tc::obs registry.
class RegistryDelta {
 public:
  RegistryDelta();  // Takes the "before" snapshot.
  void Finish();    // Takes the "after" snapshot.
  uint64_t Counter(const std::string& name) const;
  tc::obs::HistogramSnapshot Histogram(const std::string& name) const;
  /// {"before": <registry JSON>, "after": <registry JSON>}.
  std::string ToJson() const;

 private:
  tc::obs::RegistrySnapshot before_;
  tc::obs::RegistrySnapshot after_;
};

/// p-quantile of a registry histogram delta (0 when empty).
double HistQ(const tc::obs::HistogramSnapshot& h, double q);

// ---- Host noise ----

/// Background calibration loop: sleeps 1 ms at a time and records how late
/// each wake-up was. Its p99 is reported beside the tail metrics so a tail
/// shift caused by the host can be told apart from one caused by the code.
class JitterProbe {
 public:
  JitterProbe();
  ~JitterProbe();
  JitterProbe(const JitterProbe&) = delete;
  JitterProbe& operator=(const JitterProbe&) = delete;
  /// Stops the loop and returns the p99 oversleep in microseconds.
  double StopP99Us();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> late_us_;
  std::thread thread_;
};

/// "nproc=4 cpu=... build=Release" for the report header.
std::string HostDescription();

// ---- Timing transport decorator ----

/// Wraps a CloudTransport and times every call. In the traced run each
/// call is also a "net" span (a child of the cell span that made it).
/// Per-op call latencies are kept for the net.call_* metrics.
class TimedTransport final : public tc::net::CloudTransport {
 public:
  explicit TimedTransport(tc::net::CloudTransport* inner) : inner_(inner) {}

  BatchPutOutcome PutBlobBatch(
      const std::vector<std::pair<std::string, tc::Bytes>>& items,
      const std::vector<std::string>& tokens) override;
  tc::Result<tc::Bytes> GetBlob(const std::string& id,
                                uint32_t* delay_us) override;
  tc::Result<tc::cloud::SnapshotDescriptor> GetSnapshot(
      uint32_t* delay_us) override;
  tc::Result<tc::cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const tc::cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override;
  tc::cloud::TxnOutcome CommitTxn(const tc::cloud::TxnRequest& req) override;
  tc::obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const tc::Bytes& frame, uint32_t* delay_us) override;
  tc::Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override;
  std::string name() const override { return "timed-" + inner_->name(); }

  /// Call latencies (us) per op name ("put", "get", "snapshot",
  /// "get_at_snapshot", "commit", "report", "scrape") since the last Clear.
  std::map<std::string, std::vector<double>> Calls() const;
  void Clear();

 private:
  void Note(const char* op, Clock::time_point t0);

  tc::net::CloudTransport* inner_;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> calls_;  // guarded by mu_.
};

/// `prefix` followed by the decimal digits of `n` ("d", 12 -> "d12").
std::string Tag(const char* prefix, uint64_t n);

/// Deterministic pseudo-random payload for (seed, index), so stored
/// documents can be re-derived for byte comparison instead of kept.
tc::Bytes Payload(uint64_t seed, uint64_t index, size_t size);

// ---- Workloads ----

Outcome RunVault(const RunOptions& options);
Outcome RunFleet(const RunOptions& options);
Outcome RunCatchup(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
