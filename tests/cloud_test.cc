#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "tc/cloud/infrastructure.h"
#include "tc/common/overload.h"
#include "tc/obs/telemetry.h"

namespace tc::cloud {
namespace {

TEST(BlobStoreTest, VersionedPuts) {
  BlobStore store;
  EXPECT_EQ(store.Put("a", ToBytes("v1")), 1u);
  EXPECT_EQ(store.Put("a", ToBytes("v2")), 2u);
  EXPECT_EQ(*store.Get("a"), ToBytes("v2"));
  EXPECT_EQ(*store.GetVersion("a", 1), ToBytes("v1"));
  EXPECT_EQ(*store.LatestVersion("a"), 2u);
  EXPECT_FALSE(store.GetVersion("a", 3).ok());
  EXPECT_FALSE(store.Get("missing").ok());
}

TEST(BlobStoreTest, ListByPrefix) {
  BlobStore store;
  store.Put("space/alice/doc/1", {1});
  store.Put("space/alice/doc/2", {2});
  store.Put("space/bob/doc/1", {3});
  auto alice = store.List("space/alice/");
  EXPECT_EQ(alice.size(), 2u);
  EXPECT_EQ(store.List("space/").size(), 3u);
  EXPECT_TRUE(store.List("nope/").empty());
}

TEST(BlobStoreTest, DeleteAndAccounting) {
  BlobStore store;
  store.Put("a", Bytes(100));
  store.Put("a", Bytes(50));
  EXPECT_EQ(store.total_bytes(), 150u);
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_FALSE(store.Delete("a").ok());
}

TEST(BlobStoreTest, TotalBytesPinnedThroughPutPutDelete) {
  // Pins the byte accounting through a full Put/Put/Delete cycle, with an
  // unrelated blob alive to catch over-subtraction: deleting a blob must
  // remove the bytes of *all* its versions, and only those.
  BlobStore store;
  store.Put("other", Bytes(7));
  EXPECT_EQ(store.total_bytes(), 7u);
  store.Put("a", Bytes(100));
  EXPECT_EQ(store.total_bytes(), 107u);
  store.Put("a", Bytes(50));
  EXPECT_EQ(store.total_bytes(), 157u);
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.total_bytes(), 7u);
  EXPECT_EQ(store.blob_count(), 1u);
}

TEST(BlobStoreTest, MutateLatestKeepsAccountingInSync) {
  // The old raw-pointer accessor (MutableLatest) let the adversary resize a
  // payload behind the store's back, silently corrupting total_bytes().
  BlobStore store;
  store.Put("a", Bytes(100, 0xAA));
  store.Put("a", Bytes(60, 0xBB));
  ASSERT_EQ(store.total_bytes(), 160u);
  // In-place flip: size unchanged.
  ASSERT_TRUE(store.MutateLatest("a", [](Bytes& b) { b[0] ^= 0xFF; }).ok());
  EXPECT_EQ(store.total_bytes(), 160u);
  // Truncation: accounting follows.
  ASSERT_TRUE(store.MutateLatest("a", [](Bytes& b) { b.resize(10); }).ok());
  EXPECT_EQ(store.total_bytes(), 110u);
  // Growth: accounting follows.
  ASSERT_TRUE(
      store.MutateLatest("a", [](Bytes& b) { b.resize(200, 0xCC); }).ok());
  EXPECT_EQ(store.total_bytes(), 300u);
  // Only the latest version is touched.
  EXPECT_EQ(store.GetVersion("a", 1)->size(), 100u);
  // Delete after mutation subtracts the *current* sizes exactly.
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_FALSE(store.MutateLatest("missing", [](Bytes&) {}).ok());
}

TEST(BlobStoreTest, ShardedStoreBehavesLikeOneStore) {
  // Same operation sequence against 1 shard and 13 shards (coprime with
  // nothing in particular) must be observationally identical.
  BlobStore one(1);
  BlobStore many(13);
  for (int i = 0; i < 200; ++i) {
    std::string id = "space/cell" + std::to_string(i % 17) + "/doc" +
                     std::to_string(i);
    for (BlobStore* store : {&one, &many}) store->Put(id, Bytes(i % 32, 1));
  }
  EXPECT_EQ(one.blob_count(), many.blob_count());
  EXPECT_EQ(one.total_bytes(), many.total_bytes());
  EXPECT_EQ(one.List("space/cell7/"), many.List("space/cell7/"));
  EXPECT_EQ(one.List(""), many.List(""));
}

TEST(BlobStoreTest, PutBatchAssignsVersionsInInputOrder) {
  BlobStore store(4);
  std::vector<std::pair<std::string, Bytes>> batch;
  std::vector<std::string> tokens;
  for (int i = 0; i < 10; ++i) {
    batch.emplace_back("k", Bytes{uint8_t(i)});
    tokens.push_back("t" + std::to_string(i));
  }
  std::vector<uint64_t> versions = store.PutBatchIdempotent(batch, tokens);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(versions[i], uint64_t(i) + 1);
  EXPECT_EQ(*store.Get("k"), Bytes{uint8_t(9)});
  EXPECT_EQ(store.total_bytes(), 10u);
}

TEST(BlobStoreTest, TokenEvictionReDeliveryStaysConvergent) {
  // Regression for the FIFO idempotency-token window: a re-delivery whose
  // token was evicted is applied again, and the DOCUMENTED bound is that
  // this appends a duplicate version with identical bytes — the
  // convergence audit (latest payload per blob) must be unaffected, and a
  // within-window re-delivery must still dedupe exactly.
  BlobStore store(/*shard_count=*/1, /*token_history=*/4);
  const Bytes payload = ToBytes("sealed, attempt-stable bytes");

  std::vector<uint64_t> first =
      store.PutBatchIdempotent({{"doc", payload}}, {"cell|doc|v1"});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], 1u);

  // Within the window: the duplicate is answered from the table — same
  // version, no new state.
  std::vector<uint64_t> duped =
      store.PutBatchIdempotent({{"doc", payload}}, {"cell|doc|v1"});
  EXPECT_EQ(duped[0], 1u);
  EXPECT_EQ(store.token_dedupe_hits(), 1u);
  EXPECT_EQ(*store.LatestVersion("doc"), 1u);

  // Push four unrelated tokens through the single shard: FIFO capacity is
  // 4, so "cell|doc|v1" is evicted.
  for (int i = 0; i < 4; ++i) {
    store.PutBatchIdempotent({{"other", ToBytes("x")}},
                             {"cell|other|v" + std::to_string(i + 1)});
  }

  // Post-eviction re-delivery: applied as a fresh write. The bound we
  // document — and must not silently widen — is ONE duplicate version,
  // byte-identical to the acked one, leaving the latest payload (what the
  // convergence audit compares) unchanged.
  std::vector<uint64_t> late =
      store.PutBatchIdempotent({{"doc", payload}}, {"cell|doc|v1"});
  EXPECT_EQ(late[0], 2u);
  EXPECT_EQ(store.token_dedupe_hits(), 1u);  // Not a table hit.
  EXPECT_EQ(*store.LatestVersion("doc"), 2u);
  EXPECT_EQ(*store.GetVersion("doc", 1), payload);
  EXPECT_EQ(*store.GetVersion("doc", 2), payload);  // Identical bytes.
  EXPECT_EQ(*store.Get("doc"), payload);  // Convergence audit unaffected.

  // Accounting: the evicted re-delivery counts as a fresh applied token,
  // so the versions == tokens + txn-writes invariant still balances.
  EXPECT_EQ(store.versions_created(),
            store.tokens_applied() + store.txn_writes_applied());
}

/// Stores one blob through the provider edge under a fresh token.
void PutOne(CloudInfrastructure& cloud, const std::string& id,
            const Bytes& data) {
  static uint64_t next_token = 0;
  auto outcome = cloud.PutBlobBatchRpc(
      {{id, data}}, {"test/put" + std::to_string(++next_token)});
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
}

TEST(CloudTest, HonestMessaging) {
  CloudInfrastructure cloud;
  cloud.Send("alice", "bob", "greeting", ToBytes("hi"));
  cloud.Send("alice", "bob", "greeting", ToBytes("again"));
  cloud.Send("alice", "carol", "greeting", ToBytes("yo"));
  EXPECT_EQ(cloud.PendingCount("bob"), 2u);
  auto messages = cloud.Receive("bob");
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].from, "alice");
  EXPECT_EQ(messages[0].topic, "greeting");
  EXPECT_EQ(ToString(messages[0].payload), "hi");
  EXPECT_TRUE(cloud.Receive("bob").empty());
  EXPECT_EQ(cloud.Receive("carol").size(), 1u);
  EXPECT_EQ(cloud.stats().messages_sent, 3u);
  EXPECT_EQ(cloud.stats().messages_delivered, 3u);
}

TEST(CloudTest, HonestBlobsAreFaithful) {
  CloudInfrastructure cloud;
  Bytes data = ToBytes("sealed payload");
  PutOne(cloud, "x", data);
  EXPECT_EQ(*cloud.GetBlob("x"), data);
  EXPECT_TRUE(cloud.BlobExists("x"));
  EXPECT_EQ(cloud.adversary_stats().reads_tampered, 0u);
}

TEST(CloudTest, TamperingAdversaryCorruptsReads) {
  AdversaryConfig adversary;
  adversary.tamper_read_prob = 1.0;
  CloudInfrastructure cloud(adversary);
  Bytes data(100, 0x55);
  PutOne(cloud, "x", data);
  Bytes read = *cloud.GetBlob("x");
  EXPECT_NE(read, data);
  EXPECT_EQ(cloud.adversary_stats().reads_tampered, 1u);
  // The stored blob itself is intact; only reads are corrupted.
  adversary.tamper_read_prob = 0;
  cloud.set_adversary(adversary);
  EXPECT_EQ(*cloud.GetBlob("x"), data);
}

TEST(CloudTest, RollbackAdversaryServesStaleVersions) {
  AdversaryConfig adversary;
  adversary.rollback_read_prob = 1.0;
  CloudInfrastructure cloud(adversary);
  PutOne(cloud, "x", ToBytes("v1"));
  PutOne(cloud, "x", ToBytes("v2"));
  PutOne(cloud, "x", ToBytes("v3"));
  Bytes read = *cloud.GetBlob("x");
  EXPECT_NE(read, ToBytes("v3"));
  EXPECT_GE(cloud.adversary_stats().reads_rolled_back, 1u);
  // Single-version blobs cannot be rolled back.
  PutOne(cloud, "y", ToBytes("only"));
  EXPECT_EQ(*cloud.GetBlob("y"), ToBytes("only"));
}

TEST(CloudTest, DroppingAdversaryLosesMessages) {
  AdversaryConfig adversary;
  adversary.drop_message_prob = 1.0;
  CloudInfrastructure cloud(adversary);
  cloud.Send("a", "b", "t", ToBytes("gone"));
  EXPECT_TRUE(cloud.Receive("b").empty());
  EXPECT_EQ(cloud.adversary_stats().messages_dropped, 1u);
}

TEST(CloudTest, ReplayAdversaryRedeliversOldMessages) {
  AdversaryConfig adversary;
  adversary.replay_message_prob = 1.0;
  adversary.seed = 3;
  CloudInfrastructure cloud(adversary);
  cloud.Send("a", "b", "t", ToBytes("m1"));
  auto first = cloud.Receive("b");
  ASSERT_EQ(first.size(), 1u);
  // Next receive has nothing pending but the adversary replays m1.
  auto replayed = cloud.Receive("b");
  ASSERT_GE(replayed.size(), 1u);
  EXPECT_EQ(ToString(replayed[0].payload), "m1");
  EXPECT_GE(cloud.adversary_stats().messages_replayed, 1u);
}

TEST(CloudTest, AdversaryIsDeterministicForAFixedSeed) {
  // Regression: the same AdversaryConfig::seed must yield bit-identical
  // AdversaryStats across two single-threaded runs of the same workload.
  // (Multi-threaded runs are deterministic *per shard*: each shard owns an
  // RNG stream keyed by seed+shard, so only the operation order within one
  // shard — never cross-shard interleaving — affects its draws.)
  auto run = [] {
    AdversaryConfig adversary;
    adversary.tamper_read_prob = 0.3;
    adversary.rollback_read_prob = 0.3;
    adversary.drop_message_prob = 0.25;
    adversary.replay_message_prob = 0.25;
    adversary.seed = 99;
    CloudInfrastructure cloud(adversary);
    Rng workload(5);
    for (int i = 0; i < 500; ++i) {
      std::string key = "k" + std::to_string(workload.NextBelow(8));
      PutOne(cloud, key, workload.NextBytes(24));
      (void)cloud.GetBlob(key);
      std::string to = "cell" + std::to_string(workload.NextBelow(4));
      cloud.Send("sender", to, "t", workload.NextBytes(8));
      (void)cloud.Receive(to);
    }
    return cloud.adversary_stats();
  };
  AdversaryStats first = run();
  AdversaryStats second = run();
  EXPECT_GT(first.reads_tampered, 0u);
  EXPECT_GT(first.reads_rolled_back, 0u);
  EXPECT_GT(first.messages_dropped, 0u);
  EXPECT_GT(first.messages_replayed, 0u);
  EXPECT_EQ(first.reads_tampered, second.reads_tampered);
  EXPECT_EQ(first.reads_rolled_back, second.reads_rolled_back);
  EXPECT_EQ(first.messages_dropped, second.messages_dropped);
  EXPECT_EQ(first.messages_replayed, second.messages_replayed);
}

TEST(CloudTest, ProbabilisticAdversaryRatesRoughlyMatch) {
  AdversaryConfig adversary;
  adversary.tamper_read_prob = 0.2;
  adversary.seed = 11;
  CloudInfrastructure cloud(adversary);
  PutOne(cloud, "x", Bytes(64, 1));
  const int n = 2000;
  for (int i = 0; i < n; ++i) (void)cloud.GetBlob("x");
  double rate =
      static_cast<double>(cloud.adversary_stats().reads_tampered) / n;
  EXPECT_NEAR(rate, 0.2, 0.04);
}


// ---- Edge table: every provider edge op x every fault class ----
//
// One row per (edge op, fault class): the returned code, the store or hub
// side effect, the injected delay handed back and the fault ordinal. The
// rows pin the per-op differences of the provider's fault/overload
// envelope: reads treat a lost reply as a lost request, atomic ops degrade
// a torn batch to a lost request, a network duplicate is re-applied for
// put batches and reports (and for commits only when they committed), and
// the telemetry scrape runs critical without burning CPU.

enum class Fault {
  kClean,
  kOutage,
  kThrottle,
  kDropRequest,
  kDropAck,
  kDuplicate,
  kTorn,
  kSlowOp,
  kExpiredDeadline,
  kAdmissionReject,
};
constexpr Fault kAllFaults[] = {
    Fault::kClean,       Fault::kOutage,    Fault::kThrottle,
    Fault::kDropRequest, Fault::kDropAck,   Fault::kDuplicate,
    Fault::kTorn,        Fault::kSlowOp,    Fault::kExpiredDeadline,
    Fault::kAdmissionReject,
};

const char* FaultName(Fault fault) {
  switch (fault) {
    case Fault::kClean: return "clean";
    case Fault::kOutage: return "outage";
    case Fault::kThrottle: return "throttle";
    case Fault::kDropRequest: return "drop_request";
    case Fault::kDropAck: return "drop_ack";
    case Fault::kDuplicate: return "duplicate";
    case Fault::kTorn: return "torn";
    case Fault::kSlowOp: return "slow_op";
    case Fault::kExpiredDeadline: return "expired_deadline";
    case Fault::kAdmissionReject: return "admission_reject";
  }
  return "?";
}

constexpr uint32_t kEdgeDelayUs = 70;
constexpr size_t kBatchItems = 4;
constexpr double kTornLoss = 0.5;

/// Per-item keep mask a torn batch with `seed` applies (the provider draws
/// one Bernoulli(loss) per item from the decision's item seed).
std::vector<uint8_t> TornKeep(uint64_t seed) {
  std::vector<uint8_t> keep;
  Rng item_rng(seed);
  for (size_t i = 0; i < kBatchItems; ++i) {
    keep.push_back(item_rng.NextBernoulli(kTornLoss) ? 0 : 1);
  }
  return keep;
}

/// First item seed that tears a batch partially (some items kept, some
/// lost), so the torn row exercises both halves.
uint64_t TornSeed() {
  for (uint64_t seed = 1;; seed += 2) {
    std::vector<uint8_t> keep = TornKeep(seed);
    size_t kept = std::count(keep.begin(), keep.end(), 1);
    if (kept > 0 && kept < kBatchItems) return seed;
  }
}
// Large enough that a burning op's thread CPU can never be mistaken for a
// non-burning op's own work.
constexpr uint32_t kBurnUs = 20000;

uint64_t ThreadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000;
}

/// One edge call under one fault class. Attaches a replay injector whose
/// only decision is ordinal 1 (every non-clean class also carries a
/// delay, so its delay and ordinal must come back), a one-slot admission
/// controller (held by the test for the admission case), and arms an
/// already-expired deadline for the deadline case.
class EdgeCase {
 public:
  EdgeCase(CloudInfrastructure* cloud, Fault fault)
      : cloud_(cloud), fault_(fault), admission_(OneSlot()) {
    std::vector<FaultDecision> schedule;
    if (fault != Fault::kClean) {
      FaultDecision d;
      d.ordinal = 1;
      d.delay_us = kEdgeDelayUs;
      d.outage = fault == Fault::kOutage;
      d.throttled = fault == Fault::kThrottle;
      d.drop_request = fault == Fault::kDropRequest;
      d.drop_ack = fault == Fault::kDropAck;
      d.duplicate = fault == Fault::kDuplicate;
      if (fault == Fault::kTorn) {
        d.item_seed = TornSeed();
        d.item_loss = kTornLoss;
      }
      if (fault == Fault::kSlowOp) d.cpu_burn_us = kBurnUs;
      schedule.push_back(d);
    }
    injector_ = NetworkFaultInjector::FromSchedule(schedule);
    cloud_->set_fault_injector(injector_.get());
    cloud_->set_admission_controller(&admission_);
    if (fault == Fault::kAdmissionReject) {
      EXPECT_TRUE(admission_.TryAcquire(Criticality::kNormal));
    }
  }
  ~EdgeCase() {
    if (fault_ == Fault::kAdmissionReject) admission_.Release(0);
    cloud_->set_admission_controller(nullptr);
    cloud_->set_fault_injector(nullptr);
  }

  template <typename Call>
  auto Run(const Call& call) {
    OverloadContext ctx;
    if (fault_ == Fault::kExpiredDeadline) {
      ctx.budget_us = 1;
      ctx.armed_at_us = 1;  // Armed long ago: already expired.
    }
    ScopedOverloadContext scope(ctx);
    const uint64_t cpu_before = ThreadCpuUs();
    auto result = call();
    cpu_us_ = ThreadCpuUs() - cpu_before;
    retry_after_us_ = TakeRetryAfterHint();
    return result;
  }

  /// Expectations every op shares: exactly one draw, tagged with `op`;
  /// the retry-after hint only on an admission rejection.
  void ExpectDraw(NetOp op, bool shed_by_admission) const {
    EXPECT_EQ(injector_->ordinals_issued(), 1u);
    std::vector<FaultDecision> schedule = injector_->Schedule();
    if (fault_ == Fault::kClean) {
      EXPECT_TRUE(schedule.empty());
    } else {
      ASSERT_EQ(schedule.size(), 1u);
      EXPECT_EQ(schedule[0].op, op) << NetOpName(schedule[0].op);
    }
    EXPECT_EQ(retry_after_us_ != 0, shed_by_admission);
  }

  /// Whether the call burned the slow-op CPU.
  bool burned() const { return cpu_us_ >= kBurnUs; }
  uint32_t delay() const { return fault_ == Fault::kClean ? 0 : kEdgeDelayUs; }
  uint64_t ordinal() const { return fault_ == Fault::kClean ? 0 : 1; }

 private:
  static AdmissionConfig OneSlot() {
    AdmissionConfig config;
    config.initial_limit = 1.0;
    config.min_limit = 1.0;
    config.max_limit = 1.0;
    return config;
  }

  CloudInfrastructure* cloud_;
  Fault fault_;
  AdmissionController admission_;
  std::unique_ptr<NetworkFaultInjector> injector_;
  uint64_t cpu_us_ = 0;
  uint32_t retry_after_us_ = 0;
};

/// Expected code of an op that executes unless the network or the
/// overload gate stops it. `torn_lost` / `ack_lost` say whether the op
/// class turns a torn batch / a lost reply into kUnavailable.
StatusCode ExpectedCode(Fault fault, bool torn_lost, bool ack_lost,
                        bool critical = false) {
  switch (fault) {
    case Fault::kOutage:
    case Fault::kThrottle:
    case Fault::kDropRequest:
      return StatusCode::kUnavailable;
    case Fault::kDropAck:
      return ack_lost ? StatusCode::kUnavailable : StatusCode::kOk;
    case Fault::kTorn:
      return torn_lost ? StatusCode::kUnavailable : StatusCode::kOk;
    case Fault::kExpiredDeadline:
      return StatusCode::kDeadlineExceeded;
    case Fault::kAdmissionReject:
      return critical ? StatusCode::kOk : StatusCode::kResourceExhausted;
    default:
      return StatusCode::kOk;
  }
}

/// True when the request reached the provider and executed.
bool Executes(Fault fault, bool torn_lost, bool critical = false) {
  switch (fault) {
    case Fault::kOutage:
    case Fault::kThrottle:
    case Fault::kDropRequest:
    case Fault::kExpiredDeadline:
      return false;
    case Fault::kTorn:
      return !torn_lost;
    case Fault::kAdmissionReject:
      return critical;
    default:
      return true;
  }
}

TEST(EdgeTableTest, PutBlobBatch) {
  const std::vector<std::pair<std::string, Bytes>> items = {
      {"e/a", Bytes(8, 1)}, {"e/b", Bytes(8, 2)},
      {"e/c", Bytes(8, 3)}, {"e/d", Bytes(8, 4)}};
  const std::vector<std::string> tokens = {"t/a", "t/b", "t/c", "t/d"};
  ASSERT_EQ(items.size(), kBatchItems);
  const std::vector<uint8_t> torn_keep = TornKeep(TornSeed());
  const size_t torn_kept = std::count(torn_keep.begin(), torn_keep.end(), 1);

  for (Fault fault : kAllFaults) {
    SCOPED_TRACE(FaultName(fault));
    CloudInfrastructure cloud;
    EdgeCase edge(&cloud, fault);
    auto outcome =
        edge.Run([&] { return cloud.PutBlobBatchRpc(items, tokens); });
    edge.ExpectDraw(NetOp::kPutBatch, fault == Fault::kAdmissionReject);
    // A torn batch applies its surviving items and reports kUnavailable.
    const StatusCode code = ExpectedCode(fault, true, true);
    EXPECT_EQ(outcome.status.code(), code) << outcome.status.ToString();
    EXPECT_EQ(outcome.delay_us, edge.delay());
    EXPECT_EQ(outcome.fault_ordinal, edge.ordinal());
    EXPECT_EQ(edge.burned(), fault == Fault::kSlowOp);

    const BlobStore& store = cloud.blob_store();
    size_t stored = 0;
    if (fault == Fault::kTorn) {
      stored = torn_kept;
    } else if (Executes(fault, true)) {
      stored = items.size();
    }
    EXPECT_EQ(store.versions_created(), stored);
    EXPECT_EQ(store.tokens_applied(), stored);
    // The duplicate reached the provider twice; the tokens answered it.
    EXPECT_EQ(store.token_dedupe_hits(),
              fault == Fault::kDuplicate ? items.size() : 0u);
    EXPECT_EQ(cloud.stats().blob_puts, stored);
    for (size_t i = 0; i < items.size(); ++i) {
      bool acked = code == StatusCode::kOk ||
                   (fault == Fault::kTorn && torn_keep[i] != 0);
      EXPECT_EQ(outcome.acked[i] != 0, acked) << i;
      EXPECT_EQ(outcome.versions[i], acked ? 1u : 0u) << i;
    }
  }
}

TEST(EdgeTableTest, GetBlob) {
  for (Fault fault : kAllFaults) {
    SCOPED_TRACE(FaultName(fault));
    CloudInfrastructure cloud;
    cloud.blob_store().Put("e/x", ToBytes("payload"));
    EdgeCase edge(&cloud, fault);
    uint32_t delay_us = 12345;
    auto got = edge.Run([&] { return cloud.GetBlobRpc("e/x", &delay_us); });
    edge.ExpectDraw(NetOp::kGet, fault == Fault::kAdmissionReject);
    // A torn decision has no items to tear on a read: it executes.
    EXPECT_EQ(got.status().code(), ExpectedCode(fault, false, true))
        << got.status().ToString();
    if (got.ok()) {
      EXPECT_EQ(*got, ToBytes("payload"));
    }
    EXPECT_EQ(delay_us, edge.delay());
    EXPECT_EQ(edge.burned(), fault == Fault::kSlowOp);
    EXPECT_EQ(cloud.stats().blob_gets, got.ok() ? 1u : 0u);
  }
}

TEST(EdgeTableTest, GetSnapshot) {
  for (Fault fault : kAllFaults) {
    SCOPED_TRACE(FaultName(fault));
    CloudInfrastructure cloud;
    cloud.blob_store().Put("e/x", ToBytes("payload"));
    EdgeCase edge(&cloud, fault);
    uint32_t delay_us = 12345;
    auto snap = edge.Run([&] { return cloud.GetSnapshotRpc(&delay_us); });
    edge.ExpectDraw(NetOp::kGet, fault == Fault::kAdmissionReject);
    EXPECT_EQ(snap.status().code(), ExpectedCode(fault, false, true))
        << snap.status().ToString();
    if (snap.ok()) {
      EXPECT_EQ(snap->base_seq, cloud.blob_store().Snapshot().base_seq);
    }
    EXPECT_EQ(delay_us, edge.delay());
    EXPECT_EQ(edge.burned(), fault == Fault::kSlowOp);
    EXPECT_EQ(cloud.stats().blob_gets, 0u);
  }
}

TEST(EdgeTableTest, GetBlobAtSnapshot) {
  for (Fault fault : kAllFaults) {
    SCOPED_TRACE(FaultName(fault));
    CloudInfrastructure cloud;
    cloud.blob_store().Put("e/x", ToBytes("payload"));
    const SnapshotDescriptor snap = cloud.blob_store().Snapshot();
    EdgeCase edge(&cloud, fault);
    uint32_t delay_us = 12345;
    auto read = edge.Run(
        [&] { return cloud.GetBlobAtSnapshotRpc("e/x", snap, &delay_us); });
    edge.ExpectDraw(NetOp::kGet, fault == Fault::kAdmissionReject);
    EXPECT_EQ(read.status().code(), ExpectedCode(fault, false, true))
        << read.status().ToString();
    if (read.ok()) {
      EXPECT_EQ(read->version, 1u);
      EXPECT_EQ(read->data, ToBytes("payload"));
    }
    EXPECT_EQ(delay_us, edge.delay());
    EXPECT_EQ(edge.burned(), fault == Fault::kSlowOp);
    EXPECT_EQ(cloud.stats().blob_gets, read.ok() ? 1u : 0u);
  }
}

TxnRequest BlindTxn() {
  TxnRequest req;
  req.token = "edge/txn";
  req.writes.push_back({"e/k1", Bytes(4, 1), kBaseVersionAny});
  req.writes.push_back({"e/k2", Bytes(4, 2), kBaseVersionAny});
  return req;
}

TEST(EdgeTableTest, CommitTxn) {
  for (Fault fault : kAllFaults) {
    SCOPED_TRACE(FaultName(fault));
    CloudInfrastructure cloud;
    const TxnRequest req = BlindTxn();
    EdgeCase edge(&cloud, fault);
    TxnOutcome outcome = edge.Run([&] { return cloud.CommitTxnRpc(req); });
    edge.ExpectDraw(NetOp::kTxnCommit, fault == Fault::kAdmissionReject);
    // A commit is atomic: a torn decision is a lost request.
    const StatusCode code = ExpectedCode(fault, true, true);
    EXPECT_EQ(outcome.status.code(), code) << outcome.status.ToString();
    EXPECT_EQ(outcome.committed, code == StatusCode::kOk);
    EXPECT_EQ(outcome.delay_us, edge.delay());
    EXPECT_EQ(outcome.fault_ordinal, edge.ordinal());
    EXPECT_EQ(edge.burned(), fault == Fault::kSlowOp);

    const BlobStore& store = cloud.blob_store();
    const bool applied = Executes(fault, true);
    EXPECT_EQ(store.txn_writes_applied(), applied ? 2u : 0u);
    EXPECT_EQ(store.versions_created(), applied ? 2u : 0u);
    EXPECT_EQ(store.txns_committed(), applied ? 1u : 0u);
    // The committed duplicate is answered from the txn-token table.
    EXPECT_EQ(store.txn_replays(), fault == Fault::kDuplicate ? 1u : 0u);
    EXPECT_EQ(cloud.stats().txn_commits, applied ? 1u : 0u);
  }
}

TEST(EdgeTableTest, DuplicateOfAnAbortedCommitIsNotRedelivered) {
  for (Fault fault : {Fault::kClean, Fault::kDuplicate}) {
    SCOPED_TRACE(FaultName(fault));
    CloudInfrastructure cloud;
    cloud.blob_store().Put("e/k1", ToBytes("v1"));
    cloud.blob_store().Put("e/k1", ToBytes("v2"));
    TxnRequest req;
    req.token = "edge/stale";
    req.writes.push_back({"e/k1", ToBytes("mine"), 1});  // Stale base.
    EdgeCase edge(&cloud, fault);
    TxnOutcome outcome = edge.Run([&] { return cloud.CommitTxnRpc(req); });
    EXPECT_TRUE(outcome.status.IsAborted()) << outcome.status.ToString();
    EXPECT_EQ(cloud.blob_store().txns_aborted(), 1u);
    EXPECT_EQ(cloud.stats().txn_aborts, 1u);
    EXPECT_EQ(outcome.delay_us, edge.delay());
    EXPECT_EQ(outcome.fault_ordinal, edge.ordinal());
  }
}

obs::TelemetryFrame EdgeFrame() {
  obs::TelemetryFrame frame;
  frame.source = "edge/cell";
  frame.seq = 1;
  frame.delta.counters["edge.ops"] = 3;
  return frame;
}

template <typename Report>
void ExpectReportRows(const Report& report) {
  for (Fault fault : kAllFaults) {
    SCOPED_TRACE(FaultName(fault));
    CloudInfrastructure cloud;
    EdgeCase edge(&cloud, fault);
    uint32_t delay_us = 12345;
    obs::TelemetryHub::ReportOutcome outcome =
        edge.Run([&] { return report(&cloud, &delay_us); });
    edge.ExpectDraw(NetOp::kTelemetry, fault == Fault::kAdmissionReject);
    // A frame is atomic: a torn decision is a lost request.
    const StatusCode code = ExpectedCode(fault, true, true);
    EXPECT_EQ(outcome.status.code(), code) << outcome.status.ToString();
    EXPECT_EQ(outcome.applied, code == StatusCode::kOk);
    EXPECT_FALSE(outcome.duplicate);
    EXPECT_EQ(delay_us, edge.delay());
    EXPECT_EQ(edge.burned(), fault == Fault::kSlowOp);

    const obs::TelemetryHub::Stats hub = cloud.telemetry_hub().stats();
    EXPECT_EQ(hub.applied, Executes(fault, true) ? 1u : 0u);
    // The network duplicate reached the hub twice; dedup answered it.
    EXPECT_EQ(hub.duplicates, fault == Fault::kDuplicate ? 1u : 0u);
  }
}

TEST(EdgeTableTest, ReportTelemetryEncoded) {
  const Bytes encoded = obs::EncodeTelemetryFrame(EdgeFrame());
  ExpectReportRows([&](CloudInfrastructure* cloud, uint32_t* delay_us) {
    return cloud->ReportTelemetryRpc(encoded, delay_us);
  });
}

TEST(EdgeTableTest, ScrapeTelemetry) {
  for (Fault fault : kAllFaults) {
    SCOPED_TRACE(FaultName(fault));
    CloudInfrastructure cloud;
    EdgeCase edge(&cloud, fault);
    uint32_t delay_us = 12345;
    auto json = edge.Run([&] { return cloud.ScrapeTelemetryRpc(&delay_us); });
    // A scrape is admission-critical: never turned away by the controller
    // it observes, so it leaves no retry-after hint either.
    edge.ExpectDraw(NetOp::kTelemetry, false);
    EXPECT_EQ(json.status().code(),
              ExpectedCode(fault, false, true, /*critical=*/true))
        << json.status().ToString();
    if (json.ok()) {
      EXPECT_FALSE(json->empty());
    }
    EXPECT_EQ(delay_us, edge.delay());
    // Health scrapes never burn the slow-op CPU.
    EXPECT_FALSE(edge.burned());
    EXPECT_EQ(cloud.telemetry_hub().stats().reports, 0u);
  }
}

}  // namespace
}  // namespace tc::cloud
