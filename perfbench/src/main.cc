// Repository benchmark entry point:
//
//   tc_bench --workload {vault|fleet|catchup} --seed N --seconds S
//            --trace {0|1}
//
// Runs one workload against the library's public API, checks every output
// it reads back, prints human-readable report lines and, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Without
// tracing the metrics are the end-to-end set; with tracing they are the
// per-layer set, and the benchmark spans plus registry deltas are written
// to .bench_out/. Exits non-zero when any output check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.h"

namespace {

using perfbench::Metric;
using perfbench::Outcome;
using perfbench::RunOptions;

int Usage() {
  std::fprintf(stderr,
               "usage: tc_bench --workload {vault|fleet|catchup} --seed N "
               "--seconds S --trace {0|1}\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty();
}

void PrintJson(const Outcome& out, const std::map<std::string, Metric>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

constexpr char kOutDir[] = ".bench_out";

/// Writes the traced run's spans and registry deltas; checks the span tree.
void ExportTrace(const RunOptions& opt, Outcome* out) {
  std::string defect = perfbench::ValidateSpans(out->spans);
  if (!defect.empty()) out->CheckFailed("benchmark span tree: " + defect);
  if (out->spans.empty()) out->CheckFailed("traced run recorded no spans");
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  std::string stem = std::string(kOutDir) + "/" + opt.workload + "-seed" +
                     std::to_string(opt.seed);
  std::ofstream registry(stem + "-registry.json");
  registry << out->registry_json << "\n";
  if (ec || !registry || !perfbench::ExportSpans(out->spans,
                                                 stem + "-spans.json")) {
    out->CheckFailed(std::string("could not write the trace export under ") +
                     kOutDir);
    return;
  }
  out->Line("trace: %zu spans -> %s-spans.json", out->spans.size(),
            stem.c_str());
  for (const auto& [layer, us] : perfbench::SelfTimeByLayer(out->spans)) {
    out->Line("trace self time %-8s %12.0f us", layer.c_str(), us);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  Outcome out;
  perfbench::JitterProbe jitter;
  perfbench::Tracer::SetEnabled(opt.trace);
  if (opt.workload == "vault") {
    out = perfbench::RunVault(opt);
  } else if (opt.workload == "fleet") {
    out = perfbench::RunFleet(opt);
  } else if (opt.workload == "catchup") {
    out = perfbench::RunCatchup(opt);
  } else {
    return Usage();
  }
  perfbench::Tracer::SetEnabled(false);
  double jitter_p99 = jitter.StopP99Us();
  perfbench::SetLayer(&out, "bench.host_jitter_p99_us", jitter_p99);
  if (opt.trace) ExportTrace(opt, &out);

  std::printf("host: %s\n", perfbench::HostDescription().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  std::printf("error_rate = %.6f (%llu failed of %llu attempted)\n",
              out.attempted ? double(out.failed) / out.attempted : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("bench.host_jitter_p99_us = %.1f us  bench.gen_lateness_p99_us "
              "= %.1f us\n",
              jitter_p99, out.layers["bench.gen_lateness_p99_us"].value);

  const std::map<std::string, Metric>& metrics =
      opt.trace ? out.layers : out.e2e;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      out.CheckFailed(name + " is not a finite number");
    } else if (!opt.trace && metric.value <= 0) {
      out.CheckFailed(name + " has no measurement");
    }
    std::printf("%-32s %16.4f %s\n", name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
  }
  if (out.attempted == 0) out.CheckFailed("no operation was attempted");
  std::map<std::string, Metric> printed = metrics;
  for (auto& [name, metric] : printed) {
    if (!std::isfinite(metric.value)) metric.value = 0;
  }
  PrintJson(out, printed);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
