// E15 — provider transactions: commit throughput and abort rate vs
// contention for the MVCC multi-key commit path (snapshot reads,
// first-committer-wins validation, per-transaction idempotency tokens).
//
// The workload is the fleet's transactional read-modify-write: every cell
// commits one transaction per round over `txn_keys` counters drawn from a
// SHARED key space of `txn_shared_docs` keys. Shrinking the key space
// raises the collision probability, so the sweep reads as throughput and
// abort rate vs contention. Every run feeds a tc::testing::HistoryChecker
// and reports the serializability verdict next to the numbers — a
// throughput figure for a non-serializable execution would be worthless.
//
//   * abort rate vs shared-key-space size (8 threads, fixed rounds),
//   * commit throughput over the same sweep (host wall-clock),
//   * the same contention point under an injected-lossy network through
//     resilient channels (token-table replays make re-sent commits
//     exactly-once; abort rate is contention's, not the network's).
//
// Commit/abort counts are deterministic per seed on the clean network; the
// wall-clock column is a host measurement.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/fleet/fleet.h"
#include "tc/testing/history_checker.h"

using namespace tc;         // NOLINT — benchmark brevity.
using namespace tc::fleet;  // NOLINT
using cloud::CloudInfrastructure;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;

namespace {

FleetOptions BaseOptions() {
  FleetOptions options;
  options.cells = 32;
  options.threads = 8;
  options.rounds_per_cell = 32;
  options.txn_workload = true;
  options.txn_keys = 2;
  options.seed = 15;
  return options;
}

struct TxnRun {
  FleetReport report;
  size_t violations = 0;
  bool ok = false;
};

TxnRun RunOnce(CloudInfrastructure* cloud, const FleetOptions& base) {
  tc::testing::HistoryChecker checker;
  FleetOptions options = base;
  options.history = &checker;
  FleetRunner runner(cloud, options);
  auto report = runner.Run();
  TxnRun run;
  if (!report.ok()) {
    std::printf("  RUN FAILED: %s\n", report.status().ToString().c_str());
    return run;
  }
  run.report = *report;
  run.violations = checker.Verify().size();
  run.ok = report->cells_failed == 0 && report->converged;
  if (!run.ok) {
    std::printf("  %zu cells failed / not converged, first error: %s\n",
                report->cells_failed, [&] {
                  for (const auto& c : report->cells) {
                    if (!c.status.ok()) return c.status.ToString();
                  }
                  return std::string("?");
                }().c_str());
  }
  return run;
}

void PrintRow(size_t shared, const TxnRun& run) {
  const FleetReport& r = run.report;
  const uint64_t attempts = r.txns_committed + r.txn_aborts;
  std::printf("  %6zu %9llu %8llu  %5.1f%% %8llu  %10.0f  %s\n", shared,
              static_cast<unsigned long long>(r.txns_committed),
              static_cast<unsigned long long>(r.txn_aborts),
              attempts > 0
                  ? 100.0 * static_cast<double>(r.txn_aborts) /
                        static_cast<double>(attempts)
                  : 0.0,
              static_cast<unsigned long long>(r.retries),
              r.wall_seconds > 0
                  ? static_cast<double>(r.txns_committed) / r.wall_seconds
                  : 0.0,
              run.violations == 0 ? "serializable"
                                  : "VIOLATIONS — NOT SERIALIZABLE");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 15;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }

  std::printf("=== E15: provider transactions — commit throughput and "
              "abort rate vs contention ===\n");

  // ---- Contention sweep: shrink the shared key space ----
  // 32 cells x 32 rounds, 2 keys per txn. 256 shared keys ~ no collisions;
  // 2 shared keys = every transaction touches every key.
  std::printf("\nabort rate vs shared-key-space size (32 cells, 8 threads, "
              "2-key r-m-w txns, clean network; every logical txn retried to "
              "commit):\n");
  std::printf("  shared   commits   aborts  abort%%  retries    commit/s  "
              "history\n");
  for (size_t shared : {256, 64, 16, 8, 4, 2}) {
    FleetOptions options = BaseOptions();
    options.seed = seed;
    options.txn_shared_docs = shared;
    CloudInfrastructure cloud;
    TxnRun run = RunOnce(&cloud, options);
    if (!run.ok) continue;
    PrintRow(shared, run);
  }

  // ---- The contended point under a lossy network ----
  // Same 4-key contention point, resilient channels, message faults: the
  // per-transaction token table turns re-sent commits into replays, so
  // the abort column stays contention's share and the commit count stays
  // exact. Replays come from the provider's counter.
  std::printf("\nsame workload at 4 shared keys, resilient channels, lossy "
              "network (drop/dup/delay at the given rate):\n");
  std::printf("  fault%%   commits   aborts  abort%%  retries  replays  "
              "history\n");
  for (double rate : {0.0, 0.05, 0.15, 0.30}) {
    FleetOptions options = BaseOptions();
    options.seed = seed;
    options.cells = 16;  // Keep the lossy sweep quick.
    options.rounds_per_cell = 16;
    options.txn_shared_docs = 4;
    CloudInfrastructure cloud;
    NetworkFaultConfig config = NetworkFaultConfig::Lossy(rate, seed);
    config.delay_prob = rate;
    NetworkFaultInjector injector(config);
    if (rate > 0) cloud.set_fault_injector(&injector);
    TxnRun run = RunOnce(&cloud, options);
    if (!run.ok) continue;
    const FleetReport& r = run.report;
    const uint64_t attempts = r.txns_committed + r.txn_aborts;
    std::printf("  %5.0f%% %9llu %8llu  %5.1f%% %8llu %8llu  %s\n",
                rate * 100,
                static_cast<unsigned long long>(r.txns_committed),
                static_cast<unsigned long long>(r.txn_aborts),
                attempts > 0
                    ? 100.0 * static_cast<double>(r.txn_aborts) /
                          static_cast<double>(attempts)
                    : 0.0,
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(
                    cloud.blob_store().txn_replays()),
                run.violations == 0 ? "serializable"
                                    : "VIOLATIONS — NOT SERIALIZABLE");
  }

  std::printf("\nevery row's history was audited by the serializability "
              "checker (version density, snapshot-read consistency, "
              "first-committer-wins currency); the fleet additionally "
              "verified counter == version for every shared key. abort "
              "rate is a property of contention, not of the fault rate — "
              "token-per-txn idempotency absorbs the network.\n");
  return 0;
}
