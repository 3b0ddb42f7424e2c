// Chaos suite for the partition-tolerant sync stack: randomized network
// fault schedules over a concurrent fleet, with three invariants that must
// hold at ANY fault rate:
//   1. zero acked-write loss      — an acknowledged write is durable and
//                                   readable as the provider's latest state
//   2. no version anomalies       — acked versions per doc strictly increase
//   3. no duplicate side-effects  — versions created == idempotency tokens
//                                   applied + txn writes applied, however
//                                   often the network re-delivered anything
// plus serializability of the contended multi-key transaction workload
// (HistoryChecker over a fault-rate x seed sweep) and the CI
// reproducibility gate: every chaos seed must replay exactly from its
// printed fault schedule.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tc/cell/cell.h"
#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/clock.h"
#include "tc/fleet/fleet.h"
#include "tc/rpc/wire_harness.h"
#include "tc/testing/history_checker.h"

namespace tc {
namespace {

using cloud::CloudInfrastructure;
using cloud::FaultDecision;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;
using fleet::FleetOptions;
using fleet::FleetReport;

// TC_TRANSPORT=socket (the chaos_test_wire ctest leg) reruns this entire
// suite with every channel crossing a real loopback TCP connection to an
// RpcServer in front of the same CloudInfrastructure — the fault injector
// and every invariant below are unchanged. Skip the wire leg loudly where
// the sandbox forbids loopback sockets.
#define SKIP_IF_WIRE_LEG_IMPOSSIBLE()                           \
  do {                                                          \
    if (const char* reason = rpc::WireHarness::SkipReason()) {  \
      GTEST_SKIP() << reason;                                   \
    }                                                           \
  } while (false)

FleetOptions ChaosFleet() {
  FleetOptions options;
  options.cells = 16;
  options.threads = 8;
  options.rounds_per_cell = 12;
  options.put_batch = 4;
  options.gets_per_round = 4;
  options.docs_per_cell = 16;
  options.payload_bytes = 64;
  return options;
}

void ExpectInvariantsHold(const FleetReport& report,
                          CloudInfrastructure& cloud,
                          const NetworkFaultInjector& injector,
                          const std::string& label) {
  // Cell-level: no cell died (version anomalies, acked-write loss and
  // read-mismatch all fail the cell with a descriptive status).
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.status.ok())
        << label << " " << cell.cell_id << ": " << cell.status.ToString()
        << "\nfault schedule:\n" << injector.FormatSchedule();
  }
  EXPECT_EQ(report.cells_failed, 0u) << label;
  // Convergence: nothing left pending, every acked write is the latest
  // provider state.
  EXPECT_TRUE(report.converged) << label;
  EXPECT_EQ(report.cells_converged, report.cells.size()) << label;
  // Exactly-once: however many times the network re-delivered writes
  // (lost acks, duplicates, torn batches), each logical write created at
  // most one version — tokened puts and transaction writes both.
  EXPECT_EQ(cloud.blob_store().versions_created(),
            cloud.blob_store().tokens_applied() +
                cloud.blob_store().txn_writes_applied())
      << label << ": duplicate side-effects ("
      << cloud.blob_store().token_dedupe_hits() << " dedupe hits, "
      << cloud.blob_store().txn_replays() << " txn replays)";
}

// Deep-sweep width is env-tunable: the CI default keeps the lane cheap,
// `TC_CHAOS_SEEDS=25 ctest -L chaos` runs the wide sweep.
uint64_t ChaosSeedCount(uint64_t fallback) {
  const char* env = std::getenv("TC_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return fallback;
  const long parsed = std::atol(env);
  return parsed > 0 ? static_cast<uint64_t>(parsed) : fallback;
}

TEST(ChaosTest, FaultRateSweepHoldsInvariants) {
  // 1%, 10% and 50% per-attempt fault rates, several seeds each, over an
  // 8-thread fleet. All virtual-time: no wall sleeps anywhere.
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  const uint64_t seeds = ChaosSeedCount(3);
  for (double rate : {0.01, 0.10, 0.50}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      CloudInfrastructure cloud;
      NetworkFaultConfig config = NetworkFaultConfig::Lossy(rate, seed);
      config.delay_prob = rate;
      config.throttle_prob = rate / 10;
      NetworkFaultInjector injector(config);
      cloud.set_fault_injector(&injector);
      rpc::WireHarness wire(&cloud);

      FleetOptions options = ChaosFleet();
      options.seed = seed;
      options.transport = wire.transport();
      fleet::FleetRunner runner(&cloud, options);
      auto report = runner.Run();
      std::string label =
          "rate=" + std::to_string(rate) + " seed=" + std::to_string(seed);
      ASSERT_TRUE(report.ok()) << label << ": " << report.status().ToString();
      ExpectInvariantsHold(*report, cloud, injector, label);
      if (rate >= 0.10) {
        // The network really was hostile; the fleet really did retry.
        EXPECT_GT(injector.stats().faults(), 0u) << label;
        EXPECT_GT(report->retries, 0u) << label;
      }
    }
  }
}

TEST(ChaosTest, TxnSweepIsSerializableUnderFaults) {
  // Contended multi-key read-modify-write transactions from a 16-cell /
  // 8-thread fleet over 4 shared keys, swept over fault rates x seeds.
  // At EVERY point: zero serializability violations (HistoryChecker),
  // every transaction resolves, and the commit-exactness audit holds
  // (counter == version per key; versions == commits x keys).
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  const uint64_t seeds = ChaosSeedCount(5);
  for (double rate : {0.01, 0.10, 0.30}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      CloudInfrastructure cloud;
      NetworkFaultConfig config = NetworkFaultConfig::Lossy(rate, seed);
      config.delay_prob = rate;
      NetworkFaultInjector injector(config);
      cloud.set_fault_injector(&injector);
      rpc::WireHarness wire(&cloud);

      tc::testing::HistoryChecker checker;
      FleetOptions options = ChaosFleet();
      options.cells = 16;
      options.threads = 8;
      options.rounds_per_cell = 6;
      options.txn_workload = true;
      options.txn_shared_docs = 4;
      options.txn_keys = 2;
      options.seed = seed;
      options.history = &checker;
      options.transport = wire.transport();

      fleet::FleetRunner runner(&cloud, options);
      auto report = runner.Run();
      std::string label =
          "rate=" + std::to_string(rate) + " seed=" + std::to_string(seed);
      ASSERT_TRUE(report.ok()) << label << ": " << report.status().ToString()
                               << "\nfault schedule:\n"
                               << injector.FormatSchedule();
      for (const auto& cell : report->cells) {
        EXPECT_TRUE(cell.status.ok())
            << label << " " << cell.cell_id << ": " << cell.status.ToString();
      }
      EXPECT_TRUE(report->converged) << label;
      // Every logical transaction resolved: commit or definitive abort.
      EXPECT_EQ(report->txns_committed,
                options.cells * options.rounds_per_cell)
          << label;
      EXPECT_EQ(checker.commits(), report->txns_committed) << label;
      // The serializability verdict.
      auto violations = checker.Verify();
      EXPECT_TRUE(violations.empty()) << label << ": first violation: "
                                      << (violations.empty()
                                              ? ""
                                              : violations.front());
      // Shared keys really were contended under faults.
      if (rate >= 0.10) {
        EXPECT_GT(report->txn_aborts + report->retries, 0u) << label;
      }
      // Token-table replays and duplicate deliveries never double-applied.
      EXPECT_EQ(cloud.blob_store().versions_created(),
                cloud.blob_store().tokens_applied() +
                    cloud.blob_store().txn_writes_applied())
          << label;
    }
  }
}

TEST(ChaosTest, ForcedOutageDefersThenConverges) {
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  CloudInfrastructure cloud;
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.05, 77);
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  rpc::WireHarness wire(&cloud);

  FleetOptions options = ChaosFleet();
  options.cells = 8;  // Outage heal is an all-cells barrier: cells<=threads.
  options.outage_first_rounds = 6;
  options.seed = 77;
  options.transport = wire.transport();
  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectInvariantsHold(*report, cloud, injector, "outage");
  // The partition phase really deferred writes, and the drain (plus the
  // post-heal rounds) pushed every one of them through.
  EXPECT_GT(report->deferred, 0u);
  EXPECT_GT(report->breaker_opens, 0u);
  EXPECT_GT(report->heal_to_converge_seconds, 0.0);
  EXPECT_FALSE(injector.forced_outage());
}

TEST(ChaosTest, ChaosSeedReproducesFromPrintedSchedule) {
  // The CI gate: a single-threaded chaos run must replay EXACTLY from its
  // recorded fault schedule — same fleet outcome, same provider state,
  // same schedule. (Multi-threaded runs are deterministic per ordinal;
  // single-threaded the whole run is, which is what makes a printed
  // schedule a complete repro recipe.)
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  FleetOptions options = ChaosFleet();
  options.cells = 2;
  options.threads = 1;
  options.seed = 1234;

  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.25, 1234);
  config.delay_prob = 0.25;

  CloudInfrastructure original_cloud;
  NetworkFaultInjector original(config);
  original_cloud.set_fault_injector(&original);
  rpc::WireHarness original_wire(&original_cloud);
  options.transport = original_wire.transport();
  fleet::FleetRunner original_runner(&original_cloud, options);
  auto original_report = original_runner.Run();
  ASSERT_TRUE(original_report.ok());
  ASSERT_GT(original.stats().faults(), 0u);

  CloudInfrastructure replay_cloud;
  auto replay =
      NetworkFaultInjector::FromSchedule(original.Schedule(), config.seed);
  replay_cloud.set_fault_injector(replay.get());
  rpc::WireHarness replay_wire(&replay_cloud);
  options.transport = replay_wire.transport();
  fleet::FleetRunner replay_runner(&replay_cloud, options);
  auto replay_report = replay_runner.Run();
  ASSERT_TRUE(replay_report.ok());

  // Identical fault history...
  EXPECT_EQ(replay->FormatSchedule(), original.FormatSchedule());
  EXPECT_EQ(replay->stats().faults(), original.stats().faults());
  // ...identical fleet outcome...
  EXPECT_EQ(replay_report->puts, original_report->puts);
  EXPECT_EQ(replay_report->gets, original_report->gets);
  EXPECT_EQ(replay_report->retries, original_report->retries);
  EXPECT_EQ(replay_report->deferred, original_report->deferred);
  EXPECT_EQ(replay_report->drained, original_report->drained);
  EXPECT_EQ(replay_report->gets_unavailable,
            original_report->gets_unavailable);
  // ...identical provider state.
  EXPECT_EQ(replay_cloud.blob_store().versions_created(),
            original_cloud.blob_store().versions_created());
  EXPECT_EQ(replay_cloud.blob_store().tokens_applied(),
            original_cloud.blob_store().tokens_applied());
  EXPECT_EQ(replay_cloud.stats().bytes_in, original_cloud.stats().bytes_in);
}

// ---- TrustedCell end-to-end: degraded mode and anti-entropy catch-up ----

class CellChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SKIP_IF_WIRE_LEG_IMPOSSIBLE();
    clock_.Set(MakeTimestamp(2013, 1, 7, 9, 0, 0));
    cloud_.set_fault_injector(&injector_);
    wire_ = std::make_unique<rpc::WireHarness>(&cloud_);
  }

  std::unique_ptr<cell::TrustedCell> MakeCell(const std::string& id,
                                              bool resilient) {
    cell::TrustedCell::Config config;
    config.cell_id = id;
    config.owner = "alice";
    config.use_default_flash = false;
    config.flash.page_size = 2048;
    config.flash.pages_per_block = 16;
    config.flash.block_count = 256;
    config.resilient_sync = resilient;
    config.channel.op_deadline_us = 30000;  // Fail over to the outbox fast.
    config.transport = wire_->transport();  // nullptr => in-process.
    auto cell = cell::TrustedCell::Create(config, &cloud_, &directory_,
                                          &clock_);
    TC_CHECK(cell.ok());
    return std::move(*cell);
  }

  /// Requests the RpcServer served (0 on the in-process leg).
  uint64_t ServerRequests() {
    return wire_->server() != nullptr ? wire_->server()->stats().requests : 0;
  }
  /// Under TC_TRANSPORT=socket, the cell traffic since `before` crossed
  /// the wire — resilient or not, a cell honours Config::transport.
  void ExpectTrafficCrossedWire(uint64_t before) {
    if (wire_->server() != nullptr) {
      EXPECT_GT(ServerRequests(), before);
    }
  }
  /// Injector whose `ordinal`-th attempt executes but loses its ack, with
  /// every later attempt refused by an outage: the op in flight applies
  /// once, then fails transiently.
  static std::unique_ptr<NetworkFaultInjector> AckLostThenOutage(
      uint64_t ordinal) {
    std::vector<FaultDecision> schedule(1);
    schedule[0].ordinal = ordinal;
    schedule[0].drop_ack = true;
    for (uint64_t next = ordinal + 1; next <= ordinal + 500; ++next) {
      schedule.emplace_back();
      schedule.back().ordinal = next;
      schedule.back().outage = true;
    }
    return NetworkFaultInjector::FromSchedule(schedule);
  }
  void ExpectStoreInvariant() {
    const cloud::BlobStore& store = cloud_.blob_store();
    EXPECT_EQ(store.versions_created(),
              store.tokens_applied() + store.txn_writes_applied());
  }

  SimulatedClock clock_;
  NetworkFaultInjector injector_{NetworkFaultConfig{}};  // Clean by default.
  cloud::CloudInfrastructure cloud_;
  cell::CellDirectory directory_;
  // Declared last: the harness's server must stop dispatching onto cloud_
  // before cloud_ is destroyed.
  std::unique_ptr<rpc::WireHarness> wire_;
};

TEST_F(CellChaosTest, PartitionedCellKeepsWorkingAndCatchesUp) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/true);
  policy::Policy policy = cell::MakeOwnerPolicy("alice");

  // Pull the WAN cable, then store: the push cannot reach the provider.
  injector_.ForceOutage(true);
  auto doc_id = gateway->StoreDocument("tax return", "tax 2012",
                                       ToBytes("the document body"), policy);
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  EXPECT_TRUE(gateway->degraded());
  EXPECT_GE(gateway->outbox_pending(), 1u);
  EXPECT_GE(gateway->stats().pushes_deferred, 1u);

  // Degraded reads: the queued sealed payload serves read-your-writes.
  auto fetched = gateway->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, ToBytes("the document body"));

  // Updates while partitioned supersede the queued push (last-writer-wins
  // in the outbox: at most one pending record per blob).
  ASSERT_TRUE(gateway->UpdateDocument(*doc_id, ToBytes("amended body")).ok());
  EXPECT_EQ(*gateway->FetchDocument(*doc_id), ToBytes("amended body"));

  // Sync while partitioned queues the manifest too.
  ASSERT_TRUE(gateway->SyncPush().ok());
  const size_t pending_before = gateway->outbox_pending();
  EXPECT_GE(pending_before, 2u);  // Doc payload + manifest.

  // Catch-up against a dead provider reports kUnavailable and keeps the
  // queue intact.
  auto stalled = gateway->CatchUp();
  EXPECT_EQ(stalled.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(gateway->degraded());
  EXPECT_EQ(gateway->outbox_pending(), pending_before);

  // Plug the cable back in: catch-up drains, read-back-verifies and exits
  // degraded mode.
  injector_.ForceOutage(false);
  ASSERT_TRUE(gateway->CatchUp().ok());
  EXPECT_FALSE(gateway->degraded());
  EXPECT_EQ(gateway->outbox_pending(), 0u);
  EXPECT_GE(gateway->stats().catchup_drained, 2u);
  EXPECT_EQ(*gateway->FetchDocument(*doc_id), ToBytes("amended body"));

  // The drained state is real provider state: a sibling cell of the same
  // owner syncs it down and opens the payload.
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  const uint64_t requests_before = ServerRequests();
  ASSERT_TRUE(phone->SyncPull().ok());
  auto on_phone = phone->FetchDocument(*doc_id);
  ASSERT_TRUE(on_phone.ok()) << on_phone.status().ToString();
  EXPECT_EQ(*on_phone, ToBytes("amended body"));
  ExpectTrafficCrossedWire(requests_before);

  // No duplicate side-effects despite the deferred/replayed pushes.
  ExpectStoreInvariant();
}

TEST_F(CellChaosTest, NonResilientCellHonoursTheInjector) {
  // A cell without resilient_sync crosses the same faulty edge: an outage
  // fails each store with the transient status (no outbox to defer to),
  // and a lossy network is retried through exactly-once.
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  policy::Policy policy = cell::MakeOwnerPolicy("alice");
  const uint64_t requests_before = ServerRequests();

  // Past the breaker's default threshold, every call still probes the
  // provider: without an outbox the circuit never latches.
  injector_.ForceOutage(true);
  const uint32_t calls = net::ChannelOptions{}.breaker.failure_threshold + 2;
  for (uint32_t i = 0; i < calls; ++i) {
    const uint64_t rejections = injector_.stats().outage_rejections;
    auto lost = phone->StoreDocument("note", "todo", ToBytes("body"), policy);
    ASSERT_FALSE(lost.ok());
    EXPECT_TRUE(lost.status().IsTransient() ||
                lost.status().IsDeadlineExceeded())
        << lost.status().ToString();
    EXPECT_GT(injector_.stats().outage_rejections, rejections);
  }
  EXPECT_FALSE(phone->degraded());
  EXPECT_FALSE(phone->net_channel()->degraded());
  EXPECT_EQ(phone->outbox_pending(), 0u);
  EXPECT_EQ(cloud_.blob_store().versions_created(), 0u);

  // Healed, the very next call goes through.
  injector_.ForceOutage(false);
  auto stored = phone->StoreDocument("note", "todo", ToBytes("body"), policy);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();

  NetworkFaultInjector lossy(NetworkFaultConfig::Lossy(0.3, 77));
  cloud_.set_fault_injector(&lossy);
  std::map<std::string, Bytes> bodies = {{*stored, ToBytes("body")}};
  for (int i = 0; i < 10; ++i) {
    Bytes body = ToBytes("body" + std::to_string(i));
    auto doc_id = phone->StoreDocument("doc" + std::to_string(i), "chaos",
                                       body, policy);
    if (doc_id.ok()) {
      bodies[*doc_id] = body;
    } else {
      EXPECT_TRUE(doc_id.status().IsTransient() ||
                  doc_id.status().IsDeadlineExceeded())
          << doc_id.status().ToString();
    }
  }
  cloud_.set_fault_injector(&injector_);
  EXPECT_GT(lossy.stats().faults(), 0u);
  ASSERT_GT(bodies.size(), 1u);
  ASSERT_TRUE(phone->SyncPush().ok());
  for (const auto& [doc_id, body] : bodies) {
    auto fetched = phone->FetchDocument(doc_id);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(*fetched, body) << doc_id;
  }
  ExpectTrafficCrossedWire(requests_before);
  ExpectStoreInvariant();
}

TEST_F(CellChaosTest, NonResilientRetryAfterLostAckKeepsNewContent) {
  // A push that applied with its ack lost (then an outage until the
  // channel gave up) fails the call without using up its doc number or
  // version. The caller's next call reuses them with new bytes; it must
  // not be answered from the lost push's token.
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  policy::Policy policy = cell::MakeOwnerPolicy("alice");

  auto applied_then_cut = AckLostThenOutage(/*ordinal=*/1);
  cloud_.set_fault_injector(applied_then_cut.get());
  auto lost = phone->StoreDocument("draft", "todo", ToBytes("first"), policy);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(cloud_.blob_store().versions_created(), 1u);
  cloud_.set_fault_injector(&injector_);
  auto doc_id = phone->StoreDocument("final", "todo", ToBytes("second"),
                                     policy);
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  EXPECT_EQ(*phone->FetchDocument(*doc_id), ToBytes("second"));

  applied_then_cut = AckLostThenOutage(/*ordinal=*/1);
  cloud_.set_fault_injector(applied_then_cut.get());
  const uint64_t versions_before = cloud_.blob_store().versions_created();
  Status updated = phone->UpdateDocument(*doc_id, ToBytes("third"));
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(cloud_.blob_store().versions_created(), versions_before + 1);
  cloud_.set_fault_injector(&injector_);
  ASSERT_TRUE(phone->UpdateDocument(*doc_id, ToBytes("fourth")).ok());
  EXPECT_EQ(*phone->FetchDocument(*doc_id), ToBytes("fourth"));
  ExpectStoreInvariant();
}

TEST_F(CellChaosTest, OutboxSurvivesLossyNetwork) {
  // A flaky (not dead) provider: pushes retry through and the cell never
  // needs its outbox, or defers and later catches up — either way the
  // document is durable and exactly-once.
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.3, 4242);
  NetworkFaultInjector lossy(config);
  cloud_.set_fault_injector(&lossy);

  auto gateway = MakeCell("alice-lossy", /*resilient=*/true);
  policy::Policy policy = cell::MakeOwnerPolicy("alice");
  std::vector<std::string> doc_ids;
  for (int i = 0; i < 10; ++i) {
    auto doc_id = gateway->StoreDocument(
        "doc" + std::to_string(i), "chaos",
        ToBytes("body" + std::to_string(i)), policy);
    ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
    doc_ids.push_back(*doc_id);
  }
  // Drain whatever the lossy network deferred.
  for (int attempt = 0; attempt < 50 && gateway->outbox_pending() > 0;
       ++attempt) {
    (void)gateway->CatchUp();
  }
  EXPECT_EQ(gateway->outbox_pending(), 0u);
  EXPECT_FALSE(gateway->degraded());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*gateway->FetchDocument(doc_ids[i]),
              ToBytes("body" + std::to_string(i)));
  }
  ExpectStoreInvariant();
}

}  // namespace
}  // namespace tc
