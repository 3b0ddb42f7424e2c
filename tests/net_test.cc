#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/cloud/txn.h"
#include "tc/common/overload.h"
#include "tc/common/rng.h"
#include "tc/net/backoff.h"
#include "tc/net/channel.h"
#include "tc/net/circuit_breaker.h"
#include "tc/net/outbox.h"
#include "tc/net/transport.h"
#include "tc/obs/telemetry.h"
#include "tc/storage/page_transform.h"

namespace tc::net {
namespace {

using cloud::CloudInfrastructure;
using cloud::FaultDecision;
using cloud::NetOp;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;

// ---- Backoff ----

TEST(BackoffTest, DeterministicForSeedAndBounded) {
  BackoffPolicy policy;
  policy.initial_us = 100;
  policy.max_us = 10000;
  Backoff a(policy, 42), b(policy, 42), c(policy, 43);
  bool seeds_differ = false;
  for (int i = 0; i < 200; ++i) {
    uint64_t da = a.NextDelayUs();
    EXPECT_EQ(da, b.NextDelayUs());
    if (da != c.NextDelayUs()) seeds_differ = true;
    // Decorrelated jitter never goes below the floor or above the cap.
    EXPECT_GE(da, policy.initial_us);
    EXPECT_LE(da, policy.max_us);
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(BackoffTest, DecorrelatedDelaysSpreadAcrossTheWindow) {
  BackoffPolicy policy;
  policy.initial_us = 100;
  policy.max_us = 100000;
  Backoff backoff(policy, 7);
  std::vector<uint64_t> delays;
  for (int i = 0; i < 300; ++i) delays.push_back(backoff.NextDelayUs());
  auto [min_it, max_it] = std::minmax_element(delays.begin(), delays.end());
  // Jitter, not a fixed ladder: the draws cover a wide range.
  EXPECT_LT(*min_it, 1000u);
  EXPECT_GT(*max_it, 50000u);
}

TEST(BackoffTest, FullJitterRespectsExponentialCeiling) {
  BackoffPolicy policy;
  policy.decorrelated = false;
  policy.initial_us = 100;
  policy.multiplier = 2.0;
  policy.max_us = 100000;
  Backoff backoff(policy, 11);
  for (int attempt = 0; attempt < 20; ++attempt) {
    uint64_t ceiling = std::min<uint64_t>(
        policy.max_us, policy.initial_us * (1ull << attempt));
    EXPECT_LE(backoff.NextDelayUs(), ceiling);
  }
}

TEST(BackoffTest, ResetRewindsGrowthButNotTheStream) {
  BackoffPolicy policy;
  Backoff backoff(policy, 5);
  for (int i = 0; i < 10; ++i) backoff.NextDelayUs();
  EXPECT_EQ(backoff.attempt(), 10u);
  backoff.Reset();
  EXPECT_EQ(backoff.attempt(), 0u);
  // Post-reset the first delay is bounded by the decorrelated window of a
  // fresh sequence: [initial, 3 * initial).
  uint64_t first = backoff.NextDelayUs();
  EXPECT_GE(first, policy.initial_us);
  EXPECT_LT(first, 3 * policy.initial_us);
}

TEST(DeadlineBudgetTest, ChargesUntilExhaustion) {
  DeadlineBudget budget(1000);
  EXPECT_TRUE(budget.Charge(400));
  EXPECT_EQ(budget.spent_us(), 400u);
  EXPECT_EQ(budget.remaining_us(), 600u);
  EXPECT_FALSE(budget.Charge(600));  // Exactly drains it.
  EXPECT_TRUE(budget.exhausted());
  EXPECT_FALSE(budget.Charge(1));
  EXPECT_EQ(budget.spent_us(), 1001u);
}

// ---- Circuit breaker ----

TEST(CircuitBreakerTest, OpensAfterThresholdRejectsThenRecovers) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_cooldown_us = 1000;
  CircuitBreaker breaker(policy);

  uint64_t now = 0;
  EXPECT_TRUE(breaker.AllowRequest(now));
  breaker.RecordFailure(now);
  breaker.RecordFailure(now);
  EXPECT_FALSE(breaker.open());
  breaker.RecordFailure(now);  // Third consecutive failure.
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.opens(), 1u);

  // While open and inside the cooldown: rejected in O(1).
  EXPECT_FALSE(breaker.AllowRequest(now + 500));
  EXPECT_EQ(breaker.rejections(), 1u);

  // Past the cooldown: exactly one half-open probe is admitted.
  EXPECT_TRUE(breaker.AllowRequest(now + 1500));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(now + 1500);
  EXPECT_FALSE(breaker.open());
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_cooldown_us = 1000;
  CircuitBreaker breaker(policy);
  breaker.RecordFailure(0);
  EXPECT_TRUE(breaker.open());
  EXPECT_TRUE(breaker.AllowRequest(2000));  // Half-open probe.
  breaker.RecordFailure(2000);              // Probe failed.
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.AllowRequest(2500));  // Cooldown restarted.
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 3;
  CircuitBreaker breaker(policy);
  for (int i = 0; i < 10; ++i) {
    breaker.RecordFailure(0);
    breaker.RecordFailure(0);
    breaker.RecordSuccess(0);  // Never three in a row.
  }
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.opens(), 0u);
}

// ---- Fault injector ----

TEST(FaultInjectorTest, DecisionsArePureFunctionOfSeed) {
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.3, 99);
  config.delay_prob = 0.2;
  NetworkFaultInjector a(config), b(config);
  Rng ops(123);
  for (int i = 0; i < 500; ++i) {
    NetOp op = static_cast<NetOp>(ops.NextBelow(5));
    FaultDecision da = a.Next(op);
    FaultDecision db = b.Next(op);
    EXPECT_EQ(da.ToString(), db.ToString()) << "ordinal " << da.ordinal;
  }
  EXPECT_EQ(a.FormatSchedule(), b.FormatSchedule());
  EXPECT_GT(a.stats().faults(), 0u);
}

TEST(FaultInjectorTest, ScheduleReplaysExactly) {
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.25, 7);
  config.delay_prob = 0.3;
  NetworkFaultInjector original(config);
  std::vector<NetOp> op_sequence;
  Rng ops(5);
  for (int i = 0; i < 400; ++i) {
    op_sequence.push_back(static_cast<NetOp>(ops.NextBelow(5)));
    original.Next(op_sequence.back());
  }
  auto replay =
      NetworkFaultInjector::FromSchedule(original.Schedule(), config.seed);
  for (NetOp op : op_sequence) replay->Next(op);
  EXPECT_EQ(replay->FormatSchedule(), original.FormatSchedule());
  EXPECT_EQ(replay->stats().faults(), original.stats().faults());
}

TEST(FaultInjectorTest, OutageWindowsAndForcedOutage) {
  NetworkFaultConfig config;
  config.outage_ops = {{3, 6}};  // Ordinals 3, 4, 5.
  NetworkFaultInjector injector(config);
  for (uint64_t ordinal = 1; ordinal <= 8; ++ordinal) {
    FaultDecision d = injector.Next(NetOp::kPut);
    EXPECT_EQ(d.outage, ordinal >= 3 && ordinal < 6) << "ordinal " << ordinal;
  }
  EXPECT_EQ(injector.stats().outage_rejections, 3u);

  injector.ForceOutage(true);
  EXPECT_TRUE(injector.Next(NetOp::kGet).outage);
  injector.ForceOutage(false);
  EXPECT_FALSE(injector.Next(NetOp::kGet).outage);
}

// ---- Resilient channel against an injected network ----

std::unique_ptr<NetworkFaultInjector> ReplayOf(
    std::vector<FaultDecision> decisions) {
  return NetworkFaultInjector::FromSchedule(decisions);
}

FaultDecision At(uint64_t ordinal, NetOp op) {
  FaultDecision d;
  d.ordinal = ordinal;
  d.op = op;
  return d;
}

TEST(ChannelTest, RetriesThroughDroppedRequests) {
  CloudInfrastructure cloud;
  FaultDecision drop1 = At(1, NetOp::kPutBatch);
  drop1.drop_request = true;
  FaultDecision drop2 = At(2, NetOp::kPutBatch);
  drop2.drop_request = true;
  auto injector = ReplayOf({drop1, drop2});
  cloud.set_fault_injector(injector.get());

  ResilientChannel channel(&cloud, "alice", ChannelOptions{});
  auto version = channel.Put("blob", ToBytes("payload"));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  EXPECT_EQ(channel.stats().attempts, 3u);
  EXPECT_EQ(channel.stats().retries, 2u);
  EXPECT_EQ(*cloud.GetBlob("blob"), ToBytes("payload"));
}

TEST(ChannelTest, LostAckRetriesDedupeUnderTheSameToken) {
  CloudInfrastructure cloud;
  FaultDecision lost_ack = At(1, NetOp::kPutBatch);
  lost_ack.drop_ack = true;
  auto injector = ReplayOf({lost_ack});
  cloud.set_fault_injector(injector.get());

  ResilientChannel channel(&cloud, "alice", ChannelOptions{});
  std::string token = "alice|blob|v1";
  auto version = channel.Put("blob", ToBytes("once"), &token);
  ASSERT_TRUE(version.ok());
  // First attempt stored it (ack lost); the retry was answered from the
  // token table: ONE version, not two.
  EXPECT_EQ(*version, 1u);
  EXPECT_EQ(*cloud.LatestBlobVersion("blob"), 1u);
  EXPECT_EQ(cloud.blob_store().token_dedupe_hits(), 1u);
  EXPECT_EQ(cloud.blob_store().versions_created(),
            cloud.blob_store().tokens_applied());
}

TEST(ChannelTest, NetworkDuplicateAppliesOnce) {
  CloudInfrastructure cloud;
  FaultDecision duplicate = At(1, NetOp::kPutBatch);
  duplicate.duplicate = true;
  auto injector = ReplayOf({duplicate});
  cloud.set_fault_injector(injector.get());

  ResilientChannel channel(&cloud, "alice", ChannelOptions{});
  auto version = channel.Put("blob", ToBytes("payload"));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  EXPECT_EQ(*cloud.LatestBlobVersion("blob"), 1u);
  EXPECT_EQ(cloud.blob_store().token_dedupe_hits(), 1u);
}

TEST(ChannelTest, TornBatchIsCompletedItemByItem) {
  CloudInfrastructure cloud;
  // Every batch attempt up to #5 arrives torn, losing each item with
  // p=0.5; the channel must converge by retrying only the unacked items.
  std::vector<FaultDecision> torn;
  for (uint64_t ordinal = 1; ordinal <= 5; ++ordinal) {
    FaultDecision d = At(ordinal, NetOp::kPutBatch);
    d.item_seed = 1000 + ordinal;
    d.item_loss = 0.5;
    torn.push_back(d);
  }
  auto injector = ReplayOf(torn);
  cloud.set_fault_injector(injector.get());

  ResilientChannel channel(&cloud, "alice", ChannelOptions{});
  std::vector<std::pair<std::string, Bytes>> items;
  for (int i = 0; i < 8; ++i) {
    items.emplace_back("doc" + std::to_string(i),
                       ToBytes("payload" + std::to_string(i)));
  }
  auto outcome = channel.PutBatch(items);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(outcome.acked[i]);
    EXPECT_EQ(*cloud.GetBlob("doc" + std::to_string(i)),
              ToBytes("payload" + std::to_string(i)));
    // Retries of an acked item never re-apply: one version per item.
    EXPECT_EQ(*cloud.LatestBlobVersion("doc" + std::to_string(i)), 1u);
  }
  EXPECT_EQ(cloud.blob_store().versions_created(),
            cloud.blob_store().tokens_applied());
}

TEST(ChannelTest, NonTransientErrorsAreAnswersNotNetworkFailures) {
  CloudInfrastructure cloud;
  ResilientChannel channel(&cloud, "alice", ChannelOptions{});
  auto missing = channel.Get("never-stored");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(channel.stats().attempts, 1u);  // No retry on kNotFound.
  EXPECT_FALSE(channel.degraded());
}

TEST(ChannelTest, DeadGoesDegradedThenRecovers) {
  CloudInfrastructure cloud;
  NetworkFaultConfig config;  // Clean network; outage forced by hand.
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  injector.ForceOutage(true);

  ChannelOptions options;
  options.op_deadline_us = 20000;
  ResilientChannel channel(&cloud, "alice", options);

  // Every operation burns its deadline budget until the breaker trips
  // (3 consecutive op failures by default), then ops fail FAST.
  for (int i = 0; i < 3; ++i) {
    auto r = channel.Put("blob", ToBytes("x"));
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
  }
  EXPECT_TRUE(channel.degraded());
  EXPECT_EQ(channel.stats().breaker_opens, 1u);
  EXPECT_EQ(channel.stats().give_ups, 1u);

  const uint64_t attempts_before = channel.stats().attempts;
  auto rejected = channel.Put("blob", ToBytes("x"));
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(channel.stats().attempts, attempts_before);  // O(1) fast fail.
  EXPECT_EQ(channel.stats().breaker_rejections, 1u);

  // Network heals; waiting out the cooldown on the virtual clock admits a
  // half-open probe, which succeeds and closes the circuit.
  injector.ForceOutage(false);
  channel.AdvanceVirtualTime(ChannelOptions{}.breaker.open_cooldown_us);
  auto recovered = channel.Put("blob", ToBytes("back"));
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(channel.degraded());
  EXPECT_EQ(*cloud.GetBlob("blob"), ToBytes("back"));
}

TEST(ChannelTest, PartialBatchReportsPerItemTruth) {
  CloudInfrastructure cloud;
  // One torn first attempt, then a permanent outage: whatever the first
  // attempt acked must be reported acked even though the op fails.
  FaultDecision torn = At(1, NetOp::kPutBatch);
  torn.item_seed = 4242;
  torn.item_loss = 0.5;
  auto injector = ReplayOf({torn});
  cloud.set_fault_injector(injector.get());

  ChannelOptions options;
  options.op_deadline_us = 30000;
  ResilientChannel channel(&cloud, "alice", options);

  std::vector<std::pair<std::string, Bytes>> items;
  for (int i = 0; i < 8; ++i) {
    items.emplace_back("doc" + std::to_string(i), ToBytes("p"));
  }
  auto first = channel.PutBatch(items);
  ASSERT_TRUE(first.status.ok());  // Clean retries completed the batch.

  injector->ForceOutage(true);
  std::vector<std::pair<std::string, Bytes>> second;
  for (int i = 0; i < 4; ++i) {
    second.emplace_back("other" + std::to_string(i), ToBytes("q"));
  }
  auto failed = channel.PutBatch(second);
  EXPECT_FALSE(failed.status.ok());
  // Nothing could land during a full outage — per-item truth agrees.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(failed.acked[i]);
}

// ---- One retry contract across the six channel ops ----

// A CloudTransport whose attempts follow a script: attempt n takes
// script[n-1] (then `tail` once the script runs out) and is otherwise
// served by an honest in-process provider. Records each attempt's
// idempotency key and the overload context the channel armed for it.
class ScriptedTransport final : public CloudTransport {
 public:
  enum class Fault {
    kNone,
    kDropRequest,  ///< kUnavailable; the provider never saw it.
    kDropAck,      ///< kUnavailable; the provider applied it.
    kPushback,     ///< kResourceExhausted with a retry-after hint.
    kTimeout,      ///< kDeadlineExceeded (a response timeout).
    kAnswer,       ///< The definitive `answer`.
  };

  explicit ScriptedTransport(CloudInfrastructure* cloud) : inner_(cloud) {}

  std::vector<Fault> script;
  Fault tail = Fault::kNone;
  uint32_t hint_us = 0;
  Status answer;
  std::vector<std::string> keys;
  std::vector<OverloadContext> contexts;

  BatchPutOutcome PutBlobBatch(
      const std::vector<std::pair<std::string, Bytes>>& items,
      const std::vector<std::string>& tokens) override {
    std::string key;
    for (const std::string& token : tokens) {
      key += token;
      key += ';';
    }
    return Serve<BatchPutOutcome>(
        key, [&] { return inner_.PutBlobBatch(items, tokens); });
  }
  Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) override {
    return Serve<Result<Bytes>>(
        id, [&] { return inner_.GetBlob(id, delay_us); });
  }
  Result<cloud::SnapshotDescriptor> GetSnapshot(uint32_t* delay_us) override {
    return Serve<Result<cloud::SnapshotDescriptor>>(
        "snapshot", [&] { return inner_.GetSnapshot(delay_us); });
  }
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override {
    return Serve<Result<cloud::SnapshotRead>>(
        id, [&] { return inner_.GetAtSnapshot(id, snap, delay_us); });
  }
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req) override {
    return Serve<cloud::TxnOutcome>(req.token,
                                    [&] { return inner_.CommitTxn(req); });
  }
  obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) override {
    return Serve<obs::TelemetryHub::ReportOutcome>(
        std::string(frame.begin(), frame.end()),
        [&] { return inner_.ReportTelemetry(frame, delay_us); });
  }
  Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override {
    return inner_.ScrapeTelemetry(delay_us);
  }
  std::string name() const override { return "scripted"; }

 private:
  // The reply of an attempt that failed with `status`.
  template <typename T>
  static Result<T> Failed(Result<T>*, Status status) {
    return status;
  }
  template <typename Reply>
  static Reply Failed(Reply*, Status status) {
    Reply reply;
    reply.status = std::move(status);
    return reply;
  }

  template <typename Reply, typename Execute>
  Reply Serve(std::string key, Execute execute) {
    keys.push_back(std::move(key));
    contexts.push_back(CurrentOverloadContext());
    const size_t n = keys.size();
    Status failed;
    switch (n <= script.size() ? script[n - 1] : tail) {
      case Fault::kNone:
        return execute();
      case Fault::kDropRequest:
        failed = Status::Unavailable("scripted: request lost");
        break;
      case Fault::kDropAck:
        (void)execute();
        failed = Status::Unavailable("scripted: ack lost");
        break;
      case Fault::kPushback:
        SetRetryAfterHint(hint_us);
        failed = Status::ResourceExhausted("scripted: shed");
        break;
      case Fault::kTimeout:
        failed = Status::DeadlineExceeded("scripted: response timeout");
        break;
      case Fault::kAnswer:
        failed = answer;
        break;
    }
    return Failed(static_cast<Reply*>(nullptr), std::move(failed));
  }

  InProcessTransport inner_;
};

enum class Op { kPut, kGet, kSnapshot, kSnapshotGet, kCommit, kTelemetry };
constexpr Op kAllOps[] = {Op::kPut,         Op::kGet,    Op::kSnapshot,
                          Op::kSnapshotGet, Op::kCommit, Op::kTelemetry};

const char* OpName(Op op) {
  switch (op) {
    case Op::kPut: return "put";
    case Op::kGet: return "get";
    case Op::kSnapshot: return "snapshot";
    case Op::kSnapshotGet: return "snapshot_get";
    case Op::kCommit: return "commit";
    case Op::kTelemetry: return "telemetry";
  }
  return "?";
}

/// The definitive answer each op can get from an honest provider.
StatusCode AnswerOf(Op op) {
  switch (op) {
    case Op::kPut: return StatusCode::kInvalidArgument;
    case Op::kGet: return StatusCode::kNotFound;
    case Op::kSnapshot: return StatusCode::kInvalidArgument;
    case Op::kSnapshotGet: return StatusCode::kNotFound;
    case Op::kCommit: return StatusCode::kAborted;
    case Op::kTelemetry: return StatusCode::kCorruption;  // Rejected frame.
  }
  return StatusCode::kInternal;
}

/// A provider holding one blob (what the reads read), a snapshot of it,
/// and a channel to it over a ScriptedTransport.
struct ChannelRig {
  explicit ChannelRig(const ChannelOptions& options = ChannelOptions{})
      : transport(&cloud), channel(&transport, "alice", options) {
    (void)cloud.PutBlobBatchRpc({{"doc", ToBytes("stored")}}, {"seed/doc"});
    snapshot = *cloud.GetSnapshotRpc();
    obs::TelemetryFrame report;
    report.source = "alice";
    report.seq = 1;
    report.delta.counters["alice.ops"] = 1;
    frame = obs::EncodeTelemetryFrame(report);
  }

  /// Runs `op` once through the channel; returns its status.
  Status Run(Op op) {
    switch (op) {
      case Op::kPut: {
        const std::string token = "alice|doc|v2";
        return channel.Put("doc", ToBytes("fresh"), &token).status();
      }
      case Op::kGet:
        return channel.Get("doc").status();
      case Op::kSnapshot:
        return channel.GetSnapshot().status();
      case Op::kSnapshotGet:
        return channel.GetAtSnapshot("doc", snapshot).status();
      case Op::kCommit: {
        cloud::TxnRequest req;
        req.token = "alice/txn1";
        req.snapshot = snapshot;
        req.writes.push_back({"counter", ToBytes("1"), cloud::kBaseVersionAny});
        return channel.CommitTxn(req).status;
      }
      case Op::kTelemetry:
        return channel.ReportTelemetry(frame).status;
    }
    return Status::Internal("unknown op");
  }

  /// How many times the op's write landed at the provider (reads: 0).
  uint64_t Effects(Op op) {
    switch (op) {
      case Op::kPut:
        return *cloud.LatestBlobVersion("doc") - 1;  // v1 is the seed.
      case Op::kCommit: {
        auto version = cloud.LatestBlobVersion("counter");
        return version.ok() ? *version : 0;
      }
      case Op::kTelemetry:
        return cloud.telemetry_hub().stats().applied;
      default:
        return 0;
    }
  }

  CloudInfrastructure cloud;
  ScriptedTransport transport;
  ResilientChannel channel;
  cloud::SnapshotDescriptor snapshot;
  Bytes frame;
};

bool Writes(Op op) {
  return op == Op::kPut || op == Op::kCommit || op == Op::kTelemetry;
}

TEST(ChannelTest, DroppedRequestIsRetried) {
  for (Op op : kAllOps) {
    SCOPED_TRACE(OpName(op));
    ChannelRig rig;
    rig.transport.script = {ScriptedTransport::Fault::kDropRequest};
    Status status = rig.Run(op);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(rig.channel.stats().attempts, 2u);
    EXPECT_EQ(rig.channel.stats().retries, 1u);
    EXPECT_EQ(rig.channel.stats().ops_ok, 1u);
    EXPECT_EQ(rig.Effects(op), Writes(op) ? 1u : 0u);
    // Each attempt runs under the op's decaying deadline and its class.
    ASSERT_EQ(rig.transport.contexts.size(), 2u);
    EXPECT_GT(rig.transport.contexts[0].budget_us,
              rig.transport.contexts[1].budget_us);
    EXPECT_EQ(rig.transport.contexts[1].criticality, Criticality::kNormal);
  }
}

TEST(ChannelTest, LostAckIsRetriedUnderTheSameKey) {
  for (Op op : kAllOps) {
    SCOPED_TRACE(OpName(op));
    ChannelRig rig;
    rig.transport.script = {ScriptedTransport::Fault::kDropAck};
    Status status = rig.Run(op);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(rig.transport.keys.size(), 2u);
    EXPECT_EQ(rig.transport.keys[0], rig.transport.keys[1]);
    // The retry is answered from the provider's token/dedup table.
    EXPECT_EQ(rig.Effects(op), Writes(op) ? 1u : 0u);
  }
}

TEST(ChannelTest, OutageEndsInDeadlineThenFailsFast) {
  for (Op op : kAllOps) {
    SCOPED_TRACE(OpName(op));
    ChannelOptions options;
    options.op_deadline_us = 20000;
    ChannelRig rig(options);
    rig.transport.tail = ScriptedTransport::Fault::kDropRequest;
    for (int i = 0; i < 3; ++i) {
      Status status = rig.Run(op);
      EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
          << status.ToString();
    }
    EXPECT_TRUE(rig.channel.degraded());
    EXPECT_EQ(rig.channel.stats().breaker_opens, 1u);
    EXPECT_EQ(rig.channel.stats().give_ups, 1u);
    const uint64_t attempts = rig.channel.stats().attempts;
    EXPECT_EQ(rig.Run(op).code(), StatusCode::kUnavailable);
    EXPECT_EQ(rig.channel.stats().attempts, attempts);  // O(1), no attempt.
    EXPECT_EQ(rig.channel.stats().breaker_rejections, 1u);
  }
}

TEST(ChannelTest, RetryAfterHintIsHonoured) {
  for (Op op : kAllOps) {
    SCOPED_TRACE(OpName(op));
    ChannelRig rig;
    rig.transport.hint_us = 60000;  // Far above the first backoff draw.
    rig.transport.script = {ScriptedTransport::Fault::kPushback};
    Status status = rig.Run(op);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(rig.channel.stats().attempts, 2u);
    EXPECT_EQ(rig.channel.stats().pushbacks, 1u);
    const uint64_t attempt_cost = 2 * ChannelOptions{}.attempt_cost_us;
    EXPECT_GE(rig.channel.virtual_now_us(), attempt_cost + 60000);
  }
}

TEST(ChannelTest, DryRetryBudgetGivesUp) {
  for (Op op : kAllOps) {
    SCOPED_TRACE(OpName(op));
    ChannelOptions options;
    options.retry_budget.capacity = 0.5;  // Less than one retry.
    ChannelRig rig(options);
    rig.transport.script = {ScriptedTransport::Fault::kDropRequest};
    Status status = rig.Run(op);
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(status.ToString().find("retry budget exhausted"),
              std::string::npos)
        << status.ToString();
    EXPECT_EQ(rig.channel.stats().attempts, 1u);
    EXPECT_EQ(rig.channel.stats().retry_budget_denied, 1u);
  }
}

TEST(ChannelTest, DefinitiveAnswerTakesOneAttempt) {
  for (Op op : kAllOps) {
    SCOPED_TRACE(OpName(op));
    ChannelRig rig;
    rig.transport.answer = Status(AnswerOf(op), "scripted answer");
    rig.transport.script = {ScriptedTransport::Fault::kAnswer};
    EXPECT_EQ(rig.Run(op).code(), AnswerOf(op));
    EXPECT_EQ(rig.channel.stats().attempts, 1u);
    EXPECT_EQ(rig.channel.stats().retries, 0u);
  }
}

// One give-up rule: a timed-out attempt (kDeadlineExceeded, e.g. the
// socket client's response timeout) ends the op and charges the breaker
// on every op, so a cell whose provider's reads time out goes degraded.
TEST(ChannelTest, TimedOutAttemptIsAGiveUpOnEveryOp) {
  for (Op op : kAllOps) {
    SCOPED_TRACE(OpName(op));
    ChannelRig rig;
    rig.transport.tail = ScriptedTransport::Fault::kTimeout;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(rig.Run(op).code(), StatusCode::kDeadlineExceeded);
    }
    EXPECT_EQ(rig.channel.stats().attempts, 3u);  // Never retried.
    EXPECT_EQ(rig.channel.stats().deadline_exceeded, 3u);
    EXPECT_TRUE(rig.channel.degraded());
    EXPECT_EQ(rig.channel.stats().breaker_opens, 1u);
  }
}

// ... and a definitive answer never charges the breaker, on any op.
TEST(ChannelTest, DefinitiveAnswersNeverChargeTheBreaker) {
  const StatusCode answers[] = {
      StatusCode::kNotFound, StatusCode::kIntegrityViolation,
      StatusCode::kAborted, StatusCode::kInvalidArgument,
      StatusCode::kCorruption};
  for (Op op : kAllOps) {
    for (StatusCode answer : answers) {
      SCOPED_TRACE(std::string(OpName(op)) + " answered " +
                   std::string(StatusCodeToString(answer)));
      ChannelRig rig;
      rig.transport.answer = Status(answer, "scripted answer");
      rig.transport.tail = ScriptedTransport::Fault::kAnswer;
      for (int i = 0; i < 3; ++i) EXPECT_EQ(rig.Run(op).code(), answer);
      EXPECT_FALSE(rig.channel.degraded());
      EXPECT_EQ(rig.channel.stats().breaker_opens, 0u);
      EXPECT_EQ(rig.channel.stats().deadline_exceeded, 0u);
    }
  }
}

// Golden replay: a fixed lossy schedule (lost requests and acks,
// duplicates, torn batches, throttling, delays) and a forced outage run
// through each op. Pins the engine's retry decisions, draw for draw.
TEST(ChannelTest, FixedScheduleReplaysToPinnedCounts) {
  struct Golden {
    Op op;
    uint64_t attempts;
    uint64_t retries;
    uint64_t virtual_now_us;
    double retry_tokens;
    uint64_t ops_ok;
  };
  // Recorded before the six per-op retry loops were folded into one.
  const Golden kGolden[] = {
      {Op::kPut, 52, 12, 8153289, 0.59999999999999531, 28},
      {Op::kGet, 49, 9, 8176791, 1.7999999999999987, 28},
      {Op::kSnapshot, 49, 9, 8176791, 1.7999999999999987, 28},
      {Op::kSnapshotGet, 49, 9, 8176791, 1.7999999999999987, 28},
      {Op::kCommit, 51, 11, 8178583, 1.0999999999999972, 28},
      {Op::kTelemetry, 51, 11, 8132389, 1.5999999999999996, 29},
  };
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(OpName(golden.op));
    CloudInfrastructure cloud;
    (void)cloud.PutBlobBatchRpc({{"doc", ToBytes("stored")}}, {"seed/doc"});
    const cloud::SnapshotDescriptor snapshot = *cloud.GetSnapshotRpc();
    NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.3, 17);
    config.delay_prob = 0.3;
    NetworkFaultInjector injector(config);
    cloud.set_fault_injector(&injector);

    ChannelOptions options;
    options.op_deadline_us = 60000;
    options.seed = 23;
    // Real elapsed time must not decide an in-process deadline shed here.
    options.propagate_deadline = false;
    ResilientChannel channel(&cloud, "alice", options);
    for (uint64_t i = 0; i < 40; ++i) {
      if (i == 15) injector.ForceOutage(true);
      if (i == 25) injector.ForceOutage(false);
      if (channel.degraded()) {
        channel.AdvanceVirtualTime(options.breaker.open_cooldown_us);
      }
      switch (golden.op) {
        case Op::kPut:
          (void)channel.Put("doc" + std::to_string(i % 4), ToBytes("p"));
          break;
        case Op::kGet:
          (void)channel.Get("doc");
          break;
        case Op::kSnapshot:
          (void)channel.GetSnapshot();
          break;
        case Op::kSnapshotGet:
          (void)channel.GetAtSnapshot("doc", snapshot);
          break;
        case Op::kCommit: {
          cloud::TxnRequest req;
          req.token = "alice/txn" + std::to_string(i);
          req.snapshot = snapshot;
          req.writes.push_back(
              {"counter", ToBytes("1"), cloud::kBaseVersionAny});
          (void)channel.CommitTxn(req);
          break;
        }
        case Op::kTelemetry: {
          obs::TelemetryFrame frame;
          frame.source = "alice";
          frame.seq = i + 1;
          frame.delta.counters["alice.ops"] = 1;
          (void)channel.ReportTelemetry(obs::EncodeTelemetryFrame(frame));
          break;
        }
      }
    }
    const ChannelStats& stats = channel.stats();
    EXPECT_EQ(stats.attempts, golden.attempts);
    EXPECT_EQ(stats.retries, golden.retries);
    EXPECT_EQ(channel.virtual_now_us(), golden.virtual_now_us);
    EXPECT_DOUBLE_EQ(channel.retry_tokens(), golden.retry_tokens);
    EXPECT_EQ(stats.ops_ok, golden.ops_ok);
  }
}

// ---- Exactly-once property: 0–3 deliveries in any order ----

TEST(IdempotencyPropertyTest, RandomRedeliveryHasExactlyOnceEffects) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    cloud::BlobStore store;
    Rng rng(seed);
    constexpr int kWrites = 24;

    // Each logical write: unique token, its own blob, delivered 0–3 times.
    struct Write {
      std::string blob;
      std::string token;
      Bytes payload;
      int deliveries;
    };
    std::vector<Write> writes;
    std::vector<int> delivery_order;
    for (int w = 0; w < kWrites; ++w) {
      Write write;
      write.blob = "blob" + std::to_string(w % 6);  // Blobs shared.
      write.token = "w" + std::to_string(w);
      write.payload = rng.NextBytes(16);
      write.deliveries = static_cast<int>(rng.NextBelow(4));  // 0..3
      for (int d = 0; d < write.deliveries; ++d) delivery_order.push_back(w);
      writes.push_back(std::move(write));
    }
    // Random delivery order (reordering across writes and duplicates).
    for (size_t i = delivery_order.size(); i > 1; --i) {
      std::swap(delivery_order[i - 1], delivery_order[rng.NextBelow(i)]);
    }

    uint64_t delivered_total = 0;
    std::map<std::string, uint64_t> version_of_token;
    for (int w : delivery_order) {
      auto versions = store.PutBatchIdempotent(
          {{writes[w].blob, writes[w].payload}}, {writes[w].token});
      ++delivered_total;
      auto seen = version_of_token.find(writes[w].token);
      if (seen == version_of_token.end()) {
        version_of_token[writes[w].token] = versions[0];
      } else {
        // Re-delivery: answered with the original version, no new effect.
        EXPECT_EQ(versions[0], seen->second) << "seed " << seed;
      }
    }

    uint64_t unique_delivered = version_of_token.size();
    EXPECT_EQ(store.tokens_applied(), unique_delivered) << "seed " << seed;
    EXPECT_EQ(store.versions_created(), unique_delivered) << "seed " << seed;
    EXPECT_EQ(store.token_dedupe_hits(), delivered_total - unique_delivered)
        << "seed " << seed;
  }
}

// ---- Durable outbox ----

storage::FlashGeometry OutboxGeometry() {
  storage::FlashGeometry geo;
  geo.page_size = 512;
  geo.pages_per_block = 8;
  geo.block_count = 64;
  return geo;
}

TEST(OutboxTest, EnqueueSupersedesAndSurvivesReopen) {
  storage::FlashDevice device(OutboxGeometry());
  storage::PlainPageTransform plain;
  auto store =
      storage::LogStore::Open(&device, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(store.ok());

  Outbox outbox(store->get());
  ASSERT_TRUE(outbox.Load().ok());
  EXPECT_TRUE(outbox.empty());

  ASSERT_TRUE(outbox.Enqueue("blob-a", "a|v1", ToBytes("a1")).ok());
  ASSERT_TRUE(outbox.Enqueue("blob-b", "b|v1", ToBytes("b1")).ok());
  ASSERT_TRUE(outbox.Enqueue("blob-a", "a|v2", ToBytes("a2")).ok());
  // blob-a's first push was superseded: two pending, newest payload wins.
  EXPECT_EQ(outbox.size(), 2u);
  ASSERT_NE(outbox.FindByBlobId("blob-a"), nullptr);
  EXPECT_EQ(outbox.FindByBlobId("blob-a")->payload, ToBytes("a2"));
  EXPECT_EQ(outbox.FindByBlobId("blob-a")->token, "a|v2");

  // Drain one record.
  uint64_t b_seq = outbox.FindByBlobId("blob-b")->seq;
  ASSERT_TRUE(outbox.MarkDone(b_seq).ok());
  EXPECT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox.FindByBlobId("blob-b"), nullptr);

  // Power-cycle: the queue is journaled through the store.
  ASSERT_TRUE((*store)->Flush().ok());
  store->reset();
  auto reopened =
      storage::LogStore::Open(&device, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(reopened.ok());
  Outbox revived(reopened->get());
  ASSERT_TRUE(revived.Load().ok());
  EXPECT_EQ(revived.size(), 1u);
  ASSERT_NE(revived.FindByBlobId("blob-a"), nullptr);
  EXPECT_EQ(revived.FindByBlobId("blob-a")->payload, ToBytes("a2"));
  EXPECT_EQ(revived.FindByBlobId("blob-a")->token, "a|v2");
  // New sequence numbers continue above the revived ones.
  ASSERT_TRUE(revived.Enqueue("blob-c", "c|v1", ToBytes("c1")).ok());
  EXPECT_GT(revived.FindByBlobId("blob-c")->seq,
            revived.FindByBlobId("blob-a")->seq);
}

}  // namespace
}  // namespace tc::net
