#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "tc/cloud/infrastructure.h"
#include "tc/common/rng.h"
#include "tc/fleet/fleet.h"
#include "tc/fleet/worker_pool.h"
#include "tc/obs/metrics.h"

namespace tc::fleet {
namespace {

using cloud::CloudInfrastructure;
using cloud::Message;

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool::Options options;
  options.threads = 4;
  options.queue_capacity = 8;  // Far below task count: exercises blocking.
  WorkerPool pool(options);
  std::atomic<int> sum{0};
  const int n = 500;
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  pool.Shutdown();
}

TEST(WorkerPoolTest, ShutdownDrainsQueueAndRejectsNewWork) {
  WorkerPool::Options options;
  options.threads = 2;
  options.queue_capacity = 64;
  auto pool = std::make_unique<WorkerPool>(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool->Submit([&ran] { ran.fetch_add(1); }));
  }
  pool->Shutdown();  // Graceful: everything queued still runs.
  EXPECT_EQ(ran.load(), 32);
  EXPECT_FALSE(pool->Submit([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 32);
}

TEST(WorkerPoolTest, ThrowingTasksAreContainedCountedAndLatched) {
  // Regression: a task that throws used to escape WorkerLoop and take the
  // whole process down via std::terminate. The pool must survive, keep
  // running later tasks, count the failures, and latch the FIRST error.
  uint64_t metric_before = obs::MetricRegistry::Global()
                               .GetCounter("worker_pool.tasks_failed")
                               .Value();
  WorkerPool::Options options;
  options.threads = 2;
  options.queue_capacity = 16;
  WorkerPool pool(options);
  EXPECT_EQ(pool.tasks_failed(), 0u);
  EXPECT_TRUE(pool.first_error().ok());

  ASSERT_TRUE(pool.Submit([] { throw std::runtime_error("first boom"); }));
  pool.Wait();  // Order the two throwing tasks: "first boom" wins the latch.
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([] { throw std::string("not std::exception"); }));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Wait();

  EXPECT_EQ(ran.load(), 8);  // The pool outlived both throws.
  EXPECT_EQ(pool.tasks_failed(), 2u);
  Status first = pool.first_error();
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  EXPECT_NE(first.ToString().find("first boom"), std::string::npos)
      << first.ToString();
  EXPECT_EQ(obs::MetricRegistry::Global()
                    .GetCounter("worker_pool.tasks_failed")
                    .Value() -
                metric_before,
            2u);
  pool.Shutdown();
  EXPECT_EQ(pool.tasks_failed(), 2u);  // Shutdown doesn't reset the record.
}

TEST(WorkerPoolTest, ShutdownSemanticsUnderConcurrentSubmitters) {
  // Pins the Submit/Shutdown contract: every Submit that returned true runs
  // exactly once; every Submit after shutdown returns false and never runs.
  // Submitters race Shutdown from four threads to make the window real.
  WorkerPool::Options options;
  options.threads = 3;
  options.queue_capacity = 4;  // Small: submitters block, racing shutdown.
  WorkerPool pool(options);
  std::atomic<uint64_t> accepted{0}, rejected{0}, executed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      // Submit until the pool turns us away: every submitter is
      // guaranteed to observe the shutdown rejection, without depending
      // on who wins the Submit/Shutdown race (which a loaded machine
      // decides differently every run).
      while (pool.Submit([&executed] { executed.fetch_add(1); })) {
        accepted.fetch_add(1);
      }
      rejected.fetch_add(1);
    });
  }
  // Let some work through, then close the pool under the submitters.
  while (executed.load() < 20) std::this_thread::yield();
  pool.Shutdown();
  for (std::thread& thread : submitters) thread.join();

  EXPECT_EQ(executed.load(), accepted.load());  // true => ran, exactly once.
  EXPECT_EQ(rejected.load(), 4u);  // Every submitter saw the door close.
  // Shutdown is idempotent and still rejects.
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

// ---------------------------------------------------------------------------
// Tentpole stress: 8 threads x 1k mixed ops against one shared cloud.
// ---------------------------------------------------------------------------

struct AckedPut {
  std::string key;
  uint64_t version;
  Bytes payload;
};

struct ThreadTrace {
  std::vector<AckedPut> puts;
  uint64_t gets = 0;
  uint64_t sends = 0;
  uint64_t receives_drained = 0;
  uint64_t bytes_in = 0;
};

TEST(CloudConcurrencyTest, MixedOpsKeepVersionsMonotonicAndStatsExact) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 1000;
  constexpr int kSharedKeys = 32;

  CloudInfrastructure cloud;  // Honest, 16 blob + 16 queue shards.
  std::vector<ThreadTrace> traces(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cloud, &traces] {
      Rng rng(1000 + t);  // Deterministic per-thread op stream.
      ThreadTrace& trace = traces[t];
      // Versions this thread has acked per key (program order).
      std::map<std::string, uint64_t> my_latest;
      for (int op = 0; op < kOpsPerThread; ++op) {
        double dice = rng.NextDouble();
        std::string key = "k" + std::to_string(rng.NextBelow(kSharedKeys));
        if (dice < 0.40) {
          // Payload is unique per (thread, op): lost or misfiled writes are
          // detectable by exact content comparison afterwards.
          Bytes payload = ToBytes("t" + std::to_string(t) + "/op" +
                                  std::to_string(op));
          // The payload doubles as the write's unique idempotency token.
          auto put = cloud.PutBlobBatchRpc({{key, payload}},
                                           {ToString(payload)});
          ASSERT_TRUE(put.status.ok()) << put.status.ToString();
          uint64_t version = put.versions[0];
          // Per-key monotonicity, observed from one thread: every ack this
          // thread receives for a key must exceed its previous ack.
          auto [it, inserted] = my_latest.try_emplace(key, version);
          if (!inserted) {
            ASSERT_GT(version, it->second) << key;
            it->second = version;
          }
          trace.bytes_in += payload.size();
          trace.puts.push_back({key, version, std::move(payload)});
        } else if (dice < 0.70) {
          auto data = cloud.GetBlob(key);  // May be NotFound early on.
          ++trace.gets;
          if (!data.ok()) {
            ASSERT_EQ(data.status().code(), StatusCode::kNotFound);
          }
        } else if (dice < 0.85) {
          std::string to = "cell" + std::to_string(rng.NextBelow(kThreads));
          Bytes payload = rng.NextBytes(16);
          trace.bytes_in += payload.size();
          cloud.Send("cell" + std::to_string(t), to, "stress", payload);
          ++trace.sends;
        } else {
          trace.receives_drained +=
              cloud.Receive("cell" + std::to_string(t)).size();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // ---- Exact stats totals (snapshot before the verification reads). ----
  uint64_t want_puts = 0, want_gets = 0, want_sends = 0, want_bytes_in = 0;
  uint64_t drained = 0;
  for (const ThreadTrace& trace : traces) {
    want_puts += trace.puts.size();
    want_gets += trace.gets;
    want_sends += trace.sends;
    want_bytes_in += trace.bytes_in;
    drained += trace.receives_drained;
  }
  cloud::CloudStats stats = cloud.stats();
  EXPECT_EQ(stats.blob_puts, want_puts);
  EXPECT_EQ(stats.blob_gets, want_gets);
  EXPECT_EQ(stats.messages_sent, want_sends);
  EXPECT_EQ(stats.bytes_in, want_bytes_in);

  // Honest cloud: nothing dropped — what was not yet delivered is pending.
  cloud::AdversaryStats adversary = cloud.adversary_stats();
  EXPECT_EQ(adversary.messages_dropped, 0u);
  EXPECT_EQ(adversary.reads_tampered, 0u);
  for (int t = 0; t < kThreads; ++t) {
    drained += cloud.Receive("cell" + std::to_string(t)).size();
    EXPECT_EQ(cloud.PendingCount("cell" + std::to_string(t)), 0u);
  }
  EXPECT_EQ(drained, want_sends);
  EXPECT_EQ(cloud.stats().messages_delivered, want_sends);

  // ---- No lost acknowledged puts; global per-key version consistency. ----
  std::map<std::string, std::set<uint64_t>> versions_by_key;
  for (const ThreadTrace& trace : traces) {
    for (const AckedPut& put : trace.puts) {
      // The acked version must hold exactly the acked payload, forever.
      auto stored = cloud.GetBlobVersion(put.key, put.version);
      ASSERT_TRUE(stored.ok()) << put.key << " v" << put.version;
      EXPECT_EQ(*stored, put.payload) << put.key << " v" << put.version;
      // No two acks may share a version.
      EXPECT_TRUE(versions_by_key[put.key].insert(put.version).second)
          << "duplicate ack " << put.key << " v" << put.version;
    }
  }
  // Versions per key are dense: exactly 1..N with no gaps.
  for (const auto& [key, versions] : versions_by_key) {
    EXPECT_EQ(*versions.begin(), 1u) << key;
    EXPECT_EQ(*versions.rbegin(), versions.size()) << key;
    auto latest = cloud.LatestBlobVersion(key);
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, versions.size()) << key;
  }
}

// ---------------------------------------------------------------------------
// Batched puts
// ---------------------------------------------------------------------------

TEST(CloudConcurrencyTest, PutBlobBatchMatchesSequentialPuts) {
  CloudInfrastructure cloud;
  std::vector<std::pair<std::string, Bytes>> batch = {
      {"a", ToBytes("a1")}, {"b", ToBytes("b1")}, {"a", ToBytes("a2")},
      {"c", ToBytes("c1")}};
  CloudInfrastructure::BatchPutOutcome outcome =
      cloud.PutBlobBatchRpc(batch, {"t/a1", "t/b1", "t/a2", "t/c1"});
  ASSERT_TRUE(outcome.all_acked()) << outcome.status.ToString();
  const std::vector<uint64_t>& versions = outcome.versions;
  ASSERT_EQ(versions.size(), 4u);
  EXPECT_EQ(versions[0], 1u);
  EXPECT_EQ(versions[1], 1u);
  EXPECT_EQ(versions[2], 2u);  // Same-id entries get consecutive versions.
  EXPECT_EQ(versions[3], 1u);
  EXPECT_EQ(*cloud.GetBlob("a"), ToBytes("a2"));
  EXPECT_EQ(cloud.stats().blob_puts, 4u);
  EXPECT_EQ(cloud.stats().bytes_in, 8u);
}

// ---------------------------------------------------------------------------
// Byte accounting under concurrent churn (PR 8 satellite)
// ---------------------------------------------------------------------------

// The sharded atomic byte counters are updated by puts, deletes, mutations
// and GC-style retirement racing each other. The counters may transiently
// disagree with a concurrent walk, but at quiescence the fast path
// (total_bytes()) must agree EXACTLY with a ground-truth walk of every
// live version chain (AuditTotalBytes()) — any drift means an increment
// and its matching decrement disagreed about a node's size.
TEST(CloudConcurrencyTest, ByteAccountingExactAtQuiescence) {
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 1500;
  constexpr int kSharedKeys = 24;

  CloudInfrastructure cloud;
  cloud::BlobStore& blobs = cloud.blob_store();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &blobs] {
      Rng rng(7100 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::string id = "acct/k" + std::to_string(rng.NextBelow(kSharedKeys));
        double dice = rng.NextDouble();
        if (dice < 0.60) {
          blobs.Put(id, rng.NextBytes(1 + rng.NextBelow(64)));
        } else if (dice < 0.80) {
          Status s = blobs.Delete(id);  // NotFound races are fine.
          (void)s;
        } else {
          Status s = blobs.MutateLatest(id, [](Bytes& data) {
            data.resize(1 + (data.size() * 7) % 96, 0xcd);
          });
          (void)s;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(blobs.AuditTotalBytes(), blobs.total_bytes());
  EXPECT_GT(blobs.blob_count(), 0u);
}

// ---------------------------------------------------------------------------
// FleetRunner
// ---------------------------------------------------------------------------

TEST(FleetRunnerTest, HonestFleetCompletesWithExactTotals) {
  CloudInfrastructure cloud;
  FleetOptions options;
  options.cells = 16;
  options.threads = 4;
  options.rounds_per_cell = 8;
  options.put_batch = 4;
  options.gets_per_round = 3;
  options.docs_per_cell = 8;
  options.payload_bytes = 64;
  options.seed = 42;
  FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->cells_ok, options.cells);
  EXPECT_EQ(report->cells_failed, 0u);
  for (const FleetCellResult& cell : report->cells) {
    EXPECT_TRUE(cell.status.ok()) << cell.cell_id << ": "
                                  << cell.status.ToString();
  }
  // The fleet was alone on this cloud: its totals are the cloud's totals.
  EXPECT_EQ(report->puts,
            options.cells * options.rounds_per_cell * options.put_batch);
  EXPECT_EQ(report->gets,
            options.cells * options.rounds_per_cell * options.gets_per_round);
  cloud::CloudStats stats = cloud.stats();
  EXPECT_EQ(stats.blob_puts, report->puts);
  EXPECT_EQ(stats.blob_gets, report->gets);
  EXPECT_EQ(stats.messages_sent, report->sends);
  EXPECT_EQ(stats.messages_delivered, report->messages_received);
  EXPECT_GT(report->put_get_per_second, 0.0);

  // Latency percentiles come from the tc::obs histograms, delta-scoped to
  // this run: exactly one put_batch sample per round, one get sample per
  // get, even though the registry is global and cumulative.
  EXPECT_EQ(report->put_latency.count,
            options.cells * options.rounds_per_cell);
  EXPECT_EQ(report->get_latency.count, report->gets);
  EXPECT_GT(report->put_latency.p50_us, 0.0);
  EXPECT_LE(report->put_latency.p50_us, report->put_latency.p95_us);
  EXPECT_LE(report->put_latency.p95_us, report->put_latency.p99_us);
  EXPECT_LE(report->put_latency.p99_us, report->put_latency.max_us);
  EXPECT_LE(report->get_latency.p50_us, report->get_latency.max_us);
}

TEST(FleetRunnerTest, SameSeedSameWorkload) {
  // The *operation counts* of a fleet run are a pure function of the
  // options (thread interleaving affects timing only).
  FleetOptions options;
  options.cells = 8;
  options.threads = 4;
  options.rounds_per_cell = 4;
  options.seed = 7;
  uint64_t sends[2];
  for (int run = 0; run < 2; ++run) {
    CloudInfrastructure cloud;
    auto report = FleetRunner(&cloud, options).Run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->cells_failed, 0u);
    sends[run] = report->sends;
  }
  EXPECT_EQ(sends[0], sends[1]);
}

TEST(FleetRunnerTest, RejectsEmptyWorkload) {
  CloudInfrastructure cloud;
  FleetOptions options;
  options.cells = 0;
  EXPECT_FALSE(FleetRunner(&cloud, options).Run().ok());
  options.cells = 4;
  options.put_batch = 100;
  options.docs_per_cell = 10;
  EXPECT_FALSE(FleetRunner(&cloud, options).Run().ok());
}

TEST(FleetRunnerTest, CleanRunPinsExactVersions) {
  // Only a cell writes its own docs, so on a run where its channel never
  // retried or deferred, every ack must be exactly the previous ack + 1.
  // A version it did not write (planted here) convicts the cell.
  CloudInfrastructure cloud;
  ASSERT_TRUE(cloud.PutBlobBatchRpc({{"fleet/cell0/doc0", ToBytes("x")}},
                                    {"planted"})
                  .all_acked());
  FleetOptions options;
  options.cells = 1;
  options.threads = 1;
  options.rounds_per_cell = 2;
  options.docs_per_cell = 8;
  auto report = FleetRunner(&cloud, options).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->cells_failed, 1u);
  EXPECT_EQ(report->cells[0].status.code(), StatusCode::kInternal);
  EXPECT_NE(report->cells[0].status.ToString().find("non-monotonic"),
            std::string::npos)
      << report->cells[0].status.ToString();
}

TEST(FleetRunnerTest, TamperingAdversaryPropagatesPerCellErrors) {
  cloud::AdversaryConfig adversary;
  adversary.tamper_read_prob = 1.0;  // Every read corrupted.
  CloudInfrastructure cloud(adversary);
  FleetOptions options;
  options.cells = 4;
  options.threads = 2;
  options.rounds_per_cell = 2;
  options.verify_reads = true;
  FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok());  // Run() itself succeeds...
  EXPECT_EQ(report->cells_failed, options.cells);  // ...every cell convicts.
  for (const FleetCellResult& cell : report->cells) {
    EXPECT_EQ(cell.status.code(), StatusCode::kIntegrityViolation)
        << cell.cell_id;
  }
}

}  // namespace
}  // namespace tc::fleet
