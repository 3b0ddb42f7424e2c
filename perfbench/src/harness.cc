#include "harness.h"

#include <cpuid.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "tc/common/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Outcome::CheckFailed(const std::string& what) {
  if (correct) std::fprintf(stderr, "output check failed: %s\n", what.c_str());
  correct = false;
}

void Outcome::Line(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  lines.emplace_back(buf);
}

const std::vector<std::pair<std::string, std::string>>& E2eCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kE2e = {
      {"setup_s", "s"},
      {"write_p50_us", "us"},
      {"read_p50_us", "us"},
      {"read_p99_us", "us"},
      {"throughput_ops_s", "1/s"},
      {"stored_bytes_per_user_byte", "B/B"},
  };
  return kE2e;
}

const std::vector<std::pair<std::string, std::string>>& LayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"crypto.aead_seal_us", "us"},
      {"crypto.aead_open_us", "us"},
      {"crypto.sha256_mb_s", "MB/s"},
      {"crypto.self_us_per_op", "us"},
      {"tee.seal_p50_us", "us"},
      {"tee.seal_p99_us", "us"},
      {"tee.unseal_p50_us", "us"},
      {"tee.unseal_p99_us", "us"},
      {"tee.seals_per_op", "count"},
      {"policy.evaluate_us", "us"},
      {"storage.append_p50_us", "us"},
      {"storage.append_p99_us", "us"},
      {"storage.get_p50_us", "us"},
      {"storage.get_p99_us", "us"},
      {"storage.full_scans_per_op", "count"},
      {"storage.index_hit_ratio", "ratio"},
      {"storage.index_dropped", "count"},
      {"storage.flash_programs_per_op", "count"},
      {"storage.flash_erases_per_op", "count"},
      {"storage.write_amp", "B/B"},
      {"storage.gc_runs", "count"},
      {"storage.gc_us", "us"},
      {"cell.self_us.store", "us"},
      {"cell.self_us.fetch", "us"},
      {"net.call_p50_us.put", "us"},
      {"net.call_p99_us.put", "us"},
      {"net.call_p50_us.get", "us"},
      {"net.call_p99_us.get", "us"},
      {"net.attempts_per_op", "count"},
      {"net.useful_attempt_ratio", "ratio"},
      {"net.breaker_rejections", "count"},
      {"net.deferred", "count"},
      {"net.drained", "count"},
      {"rpc.client.call_p50_us", "us"},
      {"rpc.client.call_p99_us", "us"},
      {"rpc.server.dispatch_p50_us", "us"},
      {"rpc.server.dispatch_p99_us", "us"},
      {"rpc.wire_us", "us"},
      {"rpc.bytes_per_op", "B"},
      {"rpc.requests_per_cell_op", "count"},
      {"fleet.pool.task_wait_p50_us", "us"},
      {"fleet.pool.task_wait_p99_us", "us"},
      {"fleet.pool.task_run_p50_us", "us"},
      {"fleet.pool.queue_depth_max", "count"},
      {"cloud.put_batch_p50_us", "us"},
      {"cloud.put_batch_p99_us", "us"},
      {"cloud.get_p50_us", "us"},
      {"cloud.get_p99_us", "us"},
      {"cloud.txn_p50_us", "us"},
      {"cloud.txn_p99_us", "us"},
      {"cloud.blob_lock_contention", "count"},
      {"cloud.txn_aborts", "count"},
      {"cloud.bytes_per_user_byte", "B/B"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.hub_report_us", "us"},
      {"bench.gen_lateness_p99_us", "us"},
      {"bench.host_jitter_p99_us", "us"},
  };
  return kLayers;
}

void InitMetrics(Outcome* out) {
  for (const auto& [name, unit] : E2eCatalogue()) out->e2e[name] = {0, unit};
  for (const auto& [name, unit] : LayerCatalogue()) {
    out->layers[name] = {0, unit};
  }
}

namespace {

void SetIn(std::map<std::string, Metric>* metrics, const std::string& name,
           double value) {
  auto it = metrics->find(name);
  if (it == metrics->end()) {
    std::fprintf(stderr, "metric %s is not catalogued\n", name.c_str());
    std::abort();
  }
  it->second.value = value;
}

}  // namespace

void SetE2e(Outcome* out, const std::string& name, double value) {
  SetIn(&out->e2e, name, value);
}

void SetLayer(Outcome* out, const std::string& name, double value) {
  SetIn(&out->layers, name, value);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t window) {
  if (window == 0 || samples.size() < 3 * window) {
    return Quantile(samples, q);
  }
  std::vector<double> per_window;
  for (size_t start = 0; start + window <= samples.size(); start += window) {
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + start,
                            samples.begin() + start + window),
        q));
  }
  return Median(per_window);
}


// ---- Tracer ----

namespace {

std::atomic<bool> g_trace_on{false};
std::atomic<uint64_t> g_next_span{1};
std::mutex g_spans_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mu.
thread_local uint64_t t_parent = 0;
thread_local uint64_t t_trace = 0;
thread_local bool t_suppressed = false;

}  // namespace

void Tracer::SetEnabled(bool on) { g_trace_on.store(on); }
bool Tracer::Enabled() { return g_trace_on.load(std::memory_order_relaxed); }

uint64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans.push_back(span);
}

std::vector<SpanRecord> Tracer::Take() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  std::vector<SpanRecord> out;
  out.swap(g_spans);
  return out;
}

Span::Span(const char* layer, const char* op, bool active)
    : on_(active && !t_suppressed && Tracer::Enabled()) {
  if (!active && !t_suppressed) {
    suppressing_ = true;
    t_suppressed = true;
  }
  if (!on_) return;
  rec_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_parent;
  rec_.trace = t_parent == 0 ? rec_.id : t_trace;
  rec_.layer = layer;
  rec_.op = op;
  saved_parent_ = t_parent;
  saved_trace_ = t_trace;
  t_parent = rec_.id;
  t_trace = rec_.trace;
  rec_.start_ns = Tracer::NowNs();
}

Span::~Span() {
  if (suppressing_) t_suppressed = false;
  if (!on_) return;
  rec_.end_ns = Tracer::NowNs();
  t_parent = saved_parent_;
  t_trace = saved_trace_;
  Tracer::Record(rec_);
}

namespace {

/// Child-span time per parent id (children of one parent run one after
/// another on the parent's thread, so their durations do not overlap).
std::unordered_map<uint64_t, uint64_t> ChildNs(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  return child_ns;
}

}  // namespace

std::map<std::string, double> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> child_ns = ChildNs(spans);
  std::map<std::string, double> self_us;
  for (const SpanRecord& s : spans) {
    uint64_t dur = s.end_ns - s.start_ns;
    uint64_t covered = std::min(dur, child_ns[s.id]);
    self_us[s.layer] += (dur - covered) / 1e3;
  }
  return self_us;
}

double MeanSelfUs(const std::vector<SpanRecord>& spans, const char* layer,
                  const char* op) {
  std::unordered_map<uint64_t, uint64_t> child_ns = ChildNs(spans);
  double total = 0;
  uint64_t n = 0;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.layer, layer) != 0 || std::strcmp(s.op, op) != 0) {
      continue;
    }
    uint64_t dur = s.end_ns - s.start_ns;
    total += (dur - std::min(dur, child_ns[s.id])) / 1e3;
    ++n;
  }
  return n == 0 ? 0 : total / n;
}

std::string ValidateSpans(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    if (s.end_ns < s.start_ns) return "span ends before it starts";
    if (!by_id.emplace(s.id, &s).second) return "duplicate span id";
  }
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) {
      if (s.trace != s.id) return "root span outside its own trace";
      continue;
    }
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) return "span with a missing parent";
    const SpanRecord& p = *it->second;
    if (p.trace != s.trace) return "child span in another trace";
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return "child span not nested in its parent";
    }
  }
  return "";
}

bool ExportSpans(const std::vector<SpanRecord>& spans,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"spans\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"layer\":\"%s\",\"op\":\"%s\",\"start_us\":%.3f,"
                 "\"dur_us\":%.3f}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), s.layer, s.op,
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---- Registry deltas ----

RegistryDelta::RegistryDelta()
    : before_(tc::obs::MetricRegistry::Global().Snapshot()) {}

void RegistryDelta::Finish() {
  after_ = tc::obs::MetricRegistry::Global().Snapshot();
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto a = after_.counters.find(name);
  if (a == after_.counters.end()) return 0;
  auto b = before_.counters.find(name);
  return a->second - (b == before_.counters.end() ? 0 : b->second);
}

tc::obs::HistogramSnapshot RegistryDelta::Histogram(
    const std::string& name) const {
  auto a = after_.histograms.find(name);
  if (a == after_.histograms.end()) return {};
  auto b = before_.histograms.find(name);
  return b == before_.histograms.end() ? a->second
                                       : a->second.Minus(b->second);
}

std::string RegistryDelta::ToJson() const {
  return "{\"before\":" + tc::obs::ToJson(before_) +
         ",\"after\":" + tc::obs::ToJson(after_) + "}";
}

double HistQ(const tc::obs::HistogramSnapshot& h, double q) {
  return h.count == 0 ? 0 : h.Percentile(q);
}

// ---- Host noise ----

JitterProbe::JitterProbe() {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Clock::time_point due = Clock::now() + std::chrono::milliseconds(1);
      std::this_thread::sleep_until(due);
      late_us_.push_back(UsBetween(due, Clock::now()));
    }
  });
}

JitterProbe::~JitterProbe() { StopP99Us(); }

double JitterProbe::StopP99Us() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return Quantile(late_us_, 0.99);
}

std::string HostDescription() {
  char brand[49] = {};
  unsigned int regs[4];
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * leaf, regs, 16);
    }
  }
  std::string cpu(brand);
  cpu.erase(0, cpu.find_first_not_of(' '));
  if (cpu.empty()) cpu = "unknown";
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + cpu + "\" build=" + PERFBENCH_BUILD_TYPE;
}

// ---- TimedTransport ----

void TimedTransport::Note(const char* op, Clock::time_point t0) {
  double us = UsBetween(t0, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  calls_[op].push_back(us);
}

TimedTransport::BatchPutOutcome TimedTransport::PutBlobBatch(
    const std::vector<std::pair<std::string, tc::Bytes>>& items,
    const std::vector<std::string>& tokens) {
  Span span("net", "put");
  Clock::time_point t0 = Clock::now();
  BatchPutOutcome out = inner_->PutBlobBatch(items, tokens);
  Note("put", t0);
  return out;
}

tc::Result<tc::Bytes> TimedTransport::GetBlob(const std::string& id,
                                              uint32_t* delay_us) {
  Span span("net", "get");
  Clock::time_point t0 = Clock::now();
  tc::Result<tc::Bytes> out = inner_->GetBlob(id, delay_us);
  Note("get", t0);
  return out;
}

tc::Result<tc::cloud::SnapshotDescriptor> TimedTransport::GetSnapshot(
    uint32_t* delay_us) {
  Span span("net", "snapshot");
  Clock::time_point t0 = Clock::now();
  auto out = inner_->GetSnapshot(delay_us);
  Note("snapshot", t0);
  return out;
}

tc::Result<tc::cloud::SnapshotRead> TimedTransport::GetAtSnapshot(
    const std::string& id, const tc::cloud::SnapshotDescriptor& snap,
    uint32_t* delay_us) {
  Span span("net", "get_at_snapshot");
  Clock::time_point t0 = Clock::now();
  auto out = inner_->GetAtSnapshot(id, snap, delay_us);
  Note("get_at_snapshot", t0);
  return out;
}

tc::cloud::TxnOutcome TimedTransport::CommitTxn(
    const tc::cloud::TxnRequest& req) {
  Span span("net", "commit");
  Clock::time_point t0 = Clock::now();
  tc::cloud::TxnOutcome out = inner_->CommitTxn(req);
  Note("commit", t0);
  return out;
}

tc::obs::TelemetryHub::ReportOutcome TimedTransport::ReportTelemetry(
    const tc::Bytes& frame, uint32_t* delay_us) {
  Span span("net", "report");
  Clock::time_point t0 = Clock::now();
  auto out = inner_->ReportTelemetry(frame, delay_us);
  Note("report", t0);
  return out;
}

tc::Result<std::string> TimedTransport::ScrapeTelemetry(uint32_t* delay_us) {
  Span span("net", "scrape");
  Clock::time_point t0 = Clock::now();
  auto out = inner_->ScrapeTelemetry(delay_us);
  Note("scrape", t0);
  return out;
}

std::map<std::string, std::vector<double>> TimedTransport::Calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

void TimedTransport::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.clear();
}

std::string Tag(const char* prefix, uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

tc::Bytes Payload(uint64_t seed, uint64_t index, size_t size) {
  tc::Rng rng(seed * 0x9E3779B97F4A7C15ull + index * 0xBF58476D1CE4E5B9ull +
              1);
  return rng.NextBytes(size);
}

}  // namespace perfbench
