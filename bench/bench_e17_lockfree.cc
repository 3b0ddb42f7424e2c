// E17 — lock-free hot path: mutex-serialized vs lock-free put/get scaling
// for the two stores the PR 8 rewrite touched.
//
//   Part 1  LogStore puts. The "mutex" rows funnel every Put through
//           tc::testing::SerializedLogStore's store-wide mutex (the shape
//           before the lock-free append); the "lock-free" rows call the
//           store directly: the bump-allocated append log + lock-free
//           index. Thread sweep 1/2/4/8; p50/p95/p99 are caller-side put
//           latencies (mutex wait included) in a local obs::Histogram per
//           run.
//
//   Part 2  BlobStore gets under write load. The "striped" rows go through
//           tc::testing::StripeLockedBlobStore, whose per-shard mutex is
//           held around every Put and Get (the shape before the lock-free
//           reads), so a reader queues behind the writer of its shard; the
//           "lock-free" rows call the store directly: the epoch-protected
//           lock-free path. Same thread sweep; the read-latency histograms
//           are local obs::Histogram instances (BlobStore itself is
//           deliberately uninstrumented — it sits under
//           CloudInfrastructure's cloud.* timers).
//
//   Part 3  Epoch Enter/Exit micro-overhead: the fixed per-read cost the
//           lock-free paths pay instead of a mutex acquire.
//
// Honest framing: this container is effectively single-core, so these
// numbers measure CONTENTION AVOIDANCE (no convoying, no lock hand-off
// stalls, readers never blocking behind writers), not parallel speedup.
// On real multicore hardware the scaling gap widens; here the signal is
// that lock-free put throughput holds (or improves) as threads grow while
// the mutex baseline's tail latency inflates with the convoy.
//
// Ops counts are deterministic per seed; wall-clock and percentile columns
// are host measurements.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tc/cloud/blob_store.h"
#include "tc/common/rng.h"
#include "tc/obs/metrics.h"
#include "tc/storage/flash_device.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"
#include "tc/sync/epoch.h"
#include "tc/testing/serialized_log_store.h"
#include "tc/testing/stripe_locked_blob_store.h"

using namespace tc;  // NOLINT — benchmark brevity.
using cloud::BlobStore;
using storage::FlashDevice;
using storage::FlashGeometry;
using storage::LogStore;
using storage::LogStoreOptions;

namespace {

struct RunStats {
  double ops_per_sec = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

void PrintRow(const char* mode, int threads, const RunStats& s) {
  std::printf("  %-10s %7d %12.0f %8.0f %8.0f %8.0f\n", mode, threads,
              s.ops_per_sec, s.p50, s.p95, s.p99);
}

// ---- Part 1: LogStore put scaling --------------------------------------

RunStats RunLogStorePuts(bool serialize, int threads, int puts_per_thread) {
  FlashGeometry geo;
  geo.page_size = 4096;
  geo.pages_per_block = 16;
  geo.block_count = 256;
  FlashDevice device(geo);
  storage::PlainPageTransform plain;
  auto opened = LogStore::Open(&device, &plain, LogStoreOptions{});
  if (!opened.ok()) {
    std::printf("  OPEN FAILED: %s\n", opened.status().ToString().c_str());
    return {};
  }
  LogStore& store = **opened;
  tc::testing::SerializedLogStore serialized(&store);

  obs::Histogram put_us;  // Local, obs bucket layout, shared by writers.
  obs::Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([t, serialize, &store, &serialized, &put_us,
                          puts_per_thread] {
      Rng rng(1700 + t);
      // Per-thread key space: the sweep measures structural contention on
      // the append path, not semantic write-write conflicts on one key.
      for (int i = 0; i < puts_per_thread; ++i) {
        std::string key =
            "t" + std::to_string(t) + "/k" + std::to_string(i % 64);
        Bytes value = rng.NextBytes(32 + rng.NextBelow(96));
        obs::Stopwatch op;
        Status s = serialize ? serialized.Put(key, value)
                             : store.Put(key, value);
        put_us.RecordAlways(op.ElapsedUs());
        if (!s.ok()) {
          std::printf("  PUT FAILED: %s\n", s.ToString().c_str());
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  double seconds = static_cast<double>(wall.ElapsedUs()) / 1e6;

  obs::HistogramSnapshot delta = put_us.Snapshot();
  RunStats stats;
  stats.ops_per_sec =
      seconds > 0 ? static_cast<double>(threads) * puts_per_thread / seconds
                  : 0;
  stats.p50 = delta.Percentile(0.50);
  stats.p95 = delta.Percentile(0.95);
  stats.p99 = delta.Percentile(0.99);
  return stats;
}

// ---- Part 2: BlobStore get scaling under write load --------------------

RunStats RunBlobGets(bool stripe_locked, int reader_threads,
                     int gets_per_thread) {
  BlobStore store(/*shard_count=*/16, /*token_history=*/1 << 16);
  tc::testing::StripeLockedBlobStore striped(&store);
  constexpr int kKeys = 64;
  for (int k = 0; k < kKeys; ++k) {
    store.Put("doc/" + std::to_string(k), Bytes(128, 0x5a));
  }

  // One writer churns all keys for the whole run: with stripe-locked reads
  // every Get on a hot shard queues behind it; lock-free reads never do.
  std::atomic<bool> stop{false};
  std::thread writer([stripe_locked, &store, &striped, &stop] {
    Rng rng(9917);
    while (!stop.load(std::memory_order_acquire)) {
      std::string id = "doc/" + std::to_string(rng.NextBelow(kKeys));
      Bytes data = rng.NextBytes(64 + rng.NextBelow(128));
      if (stripe_locked) {
        striped.Put(id, data);
      } else {
        store.Put(id, data);
      }
    }
  });

  obs::Histogram get_us;  // Local, obs bucket layout, shared by readers.
  obs::Stopwatch wall;
  std::vector<std::thread> readers;
  readers.reserve(reader_threads);
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([t, stripe_locked, &store, &striped, &get_us,
                          gets_per_thread] {
      Rng rng(3300 + t);
      for (int i = 0; i < gets_per_thread; ++i) {
        std::string id = "doc/" + std::to_string(rng.NextBelow(kKeys));
        obs::Stopwatch op;
        auto got = stripe_locked ? striped.Get(id) : store.Get(id);
        get_us.RecordAlways(op.ElapsedUs());
        if (!got.ok()) {
          std::printf("  GET FAILED: %s\n", got.status().ToString().c_str());
          return;
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  double seconds = static_cast<double>(wall.ElapsedUs()) / 1e6;
  stop.store(true, std::memory_order_release);
  writer.join();

  obs::HistogramSnapshot snap = get_us.Snapshot();
  RunStats stats;
  stats.ops_per_sec =
      seconds > 0
          ? static_cast<double>(reader_threads) * gets_per_thread / seconds
          : 0;
  stats.p50 = snap.Percentile(0.50);
  stats.p95 = snap.Percentile(0.95);
  stats.p99 = snap.Percentile(0.99);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== E17: lock-free hot path — mutex vs lock-free put/get "
              "scaling ===\n");
  std::printf("(single-core container: read as contention avoidance, not "
              "parallel speedup)\n");

  const int kThreadSweep[] = {1, 2, 4, 8};

  // ---- Part 1 ----
  const int kPuts = quick ? 2000 : 20000;
  std::printf("\nLogStore put path (%d puts/thread, 32-128 B values; "
              "caller-side p50/p95/p99, microseconds):\n",
              kPuts);
  std::printf("  %-10s %7s %12s %8s %8s %8s\n", "mode", "threads", "puts/s",
              "p50", "p95", "p99");
  for (int threads : kThreadSweep) {
    PrintRow("mutex", threads, RunLogStorePuts(true, threads, kPuts));
    PrintRow("lock-free", threads, RunLogStorePuts(false, threads, kPuts));
  }

  // ---- Part 2 ----
  const int kGets = quick ? 5000 : 50000;
  std::printf("\nBlobStore get path under one-writer churn (%d gets/thread "
              "over 64 keys; p50/p95/p99 in microseconds):\n",
              kGets);
  std::printf("  %-10s %7s %12s %8s %8s %8s\n", "mode", "threads", "gets/s",
              "p50", "p95", "p99");
  for (int threads : kThreadSweep) {
    PrintRow("striped", threads, RunBlobGets(true, threads, kGets));
    PrintRow("lock-free", threads, RunBlobGets(false, threads, kGets));
  }

  // ---- Part 3 ----
  const int kEpochOps = quick ? 200000 : 2000000;
  {
    sync::EpochManager epochs;
    obs::Stopwatch wall;
    for (int i = 0; i < kEpochOps; ++i) {
      sync::EpochGuard guard(epochs);
    }
    double ns = static_cast<double>(wall.ElapsedUs()) * 1000.0 / kEpochOps;
    std::printf("\nEpoch Enter/Exit pair (the fixed per-read cost replacing "
                "a mutex acquire): %.1f ns over %d iterations\n",
                ns, kEpochOps);
  }

  std::printf("\nE17 done.\n");
  return 0;
}
