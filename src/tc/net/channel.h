#ifndef TC_NET_CHANNEL_H_
#define TC_NET_CHANNEL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "tc/cloud/infrastructure.h"
#include "tc/common/overload.h"
#include "tc/common/result.h"
#include "tc/net/backoff.h"
#include "tc/net/circuit_breaker.h"
#include "tc/net/transport.h"
#include "tc/obs/metrics.h"

namespace tc::net {

struct ChannelOptions {
  BackoffPolicy backoff;
  CircuitBreakerPolicy breaker;
  /// Virtual retry budget of one operation (attempts + backoff delays).
  /// Exhaustion maps to kDeadlineExceeded.
  uint64_t op_deadline_us = 250000;
  /// Virtual cost charged per network attempt (models the WAN round-trip
  /// on the simulated clock; independent of the cloud's wall-clock
  /// op_latency_us knob).
  uint64_t attempt_cost_us = 2000;
  uint64_t seed = 1;
  /// Token-bucket cap on retries (see RetryBudgetPolicy): a dry bucket
  /// fails the op kDeadlineExceeded instead of amplifying an outage.
  RetryBudgetPolicy retry_budget;
  /// Criticality class every attempt is tagged with (rides the wire flags
  /// and decides the provider's shed order). Mutable per-leg via
  /// set_criticality: fleet drains mark themselves kBackground.
  Criticality criticality = Criticality::kNormal;
  /// Arm each attempt's thread-local OverloadContext with the operation's
  /// remaining deadline budget, so the provider (in-process gate or wire
  /// header) can shed the request once that budget is gone.
  bool propagate_deadline = true;
};

struct ChannelStats {
  uint64_t attempts = 0;       ///< Network attempts sent.
  uint64_t retries = 0;        ///< Attempts beyond the first of each op.
  uint64_t ops_ok = 0;
  uint64_t ops_failed = 0;     ///< Non-OK results returned to the caller.
  uint64_t deadline_exceeded = 0;
  uint64_t breaker_rejections = 0;  ///< Ops answered kUnavailable in O(1).
  uint64_t breaker_opens = 0;
  uint64_t give_ups = 0;  ///< Deadline exhaustions that opened the circuit.
  uint64_t txns_committed = 0;  ///< Commit answers (incl. replayed).
  uint64_t txns_aborted = 0;    ///< Definitive abort answers.
  uint64_t retry_budget_denied = 0;  ///< Retries refused by the dry bucket.
  uint64_t pushbacks = 0;  ///< Attempts answered with a retry-after hint.
};

/// Client-side resilient channel to the untrusted provider: exponential
/// backoff with decorrelated jitter, per-operation deadline budgets,
/// idempotent puts, and a circuit breaker that converts a dead provider
/// into fast-failing kUnavailable (degraded mode) instead of a deadline
/// burn per call.
///
/// All timing is virtual: a channel-private microsecond clock advanced by
/// attempt costs, injected delays and backoff waits. Nothing sleeps, so
/// retry storms run at CPU speed and replay deterministically.
///
/// One channel per cell, used from one thread at a time (a cell's
/// operations are serial); the class is not thread-safe.
///
/// Observability: `cloud.retries` counts retry attempts fleet-wide;
/// `net.breaker_opens` / `net.deadline_exceeded` count give-up events.
/// When an operation exhausts its deadline budget *and* that failure flips
/// the breaker open, the flight recorder captures a "net:sync_giveup" dump
/// with the active trace context — the moment a cell abandons the sync
/// path and falls back to its outbox.
class ResilientChannel {
 public:
  struct PutBatchResult {
    Status status = Status::OK();     ///< OK = every item acked.
    std::vector<uint64_t> versions;   ///< Valid where acked[i] != 0.
    std::vector<uint8_t> acked;
    uint32_t attempts = 0;
  };

  /// In-process channel (the historical default): wraps `cloud` in an
  /// owned InProcessTransport.
  ResilientChannel(cloud::CloudInfrastructure* cloud, std::string peer_id,
                   const ChannelOptions& options);

  /// Transport-explicit channel: every attempt goes through `transport`
  /// (not owned; must outlive the channel). This is how a cell speaks to a
  /// provider living in another process over TCP — same retry engine, same
  /// token semantics, different wire.
  ResilientChannel(CloudTransport* transport, std::string peer_id,
                   const ChannelOptions& options);

  /// Batched idempotent put. `tokens` names each logical write; pass an
  /// empty vector to let the channel mint fresh (peer, seq) tokens. A
  /// partially acked batch returns the per-item truth — callers must
  /// treat acked items as durable even when `status` is not OK.
  PutBatchResult PutBatch(
      const std::vector<std::pair<std::string, Bytes>>& items,
      std::vector<std::string> tokens = {});

  /// Single idempotent put. A caller-supplied stable token (e.g.
  /// "cell|blob|v3") makes the put exactly-once across process restarts —
  /// the outbox drain path relies on this.
  Result<uint64_t> Put(const std::string& id, const Bytes& data,
                       const std::string* token = nullptr);

  Result<Bytes> Get(const std::string& id);

  // ---- Provider transactions ----

  /// Snapshot of the provider's committed horizon, with the usual
  /// breaker/deadline/backoff treatment of the network leg.
  Result<cloud::SnapshotDescriptor> GetSnapshot();

  /// Snapshot read: newest version of `id` visible in `snap`. kNotFound is
  /// an answer (no retry); network losses are retried within the budget.
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap);

  /// Multi-key atomic commit. Transient network failures are retried with
  /// the SAME request (same token, same read/write sets) — a lost-ack
  /// retry is answered from the provider's txn-token table, so the caller
  /// always learns the transaction's true fate. An abort is a definitive
  /// answer, NOT a network failure: it is returned to the caller, who
  /// refreshes its snapshot and rebuilds the transaction under the same
  /// token. A deadline exhaustion leaves the outcome unresolved
  /// (`status` = kDeadlineExceeded, `committed` false): the commit may or
  /// may not have applied, and only a later re-send of the identical
  /// request can resolve it.
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req);

  // ---- Fleet telemetry ----

  /// Ships one already-encoded obs::TelemetryFrame with the usual
  /// breaker/deadline/backoff treatment. The frame's (source, seq) is the
  /// idempotency key: every retry sends the identical bytes, so a lost ack
  /// is answered from the hub's dedup table (as a duplicate outcome, which
  /// counts as delivered). A non-transient outcome (bad frame) is
  /// definitive and not retried.
  obs::TelemetryHub::ReportOutcome ReportTelemetry(const Bytes& frame);

  /// True while the circuit is open: operations fail fast with
  /// kUnavailable and the owner should queue work locally.
  bool degraded() const { return breaker_.open(); }

  /// Criticality every subsequent attempt is tagged with. Fleet drains and
  /// anti-entropy catch-up set kBackground around their legs (and restore
  /// after), so the provider sheds them first under overload.
  void set_criticality(Criticality criticality) {
    options_.criticality = criticality;
  }
  Criticality criticality() const { return options_.criticality; }

  /// Tokens left in the retry budget (capacity when budgeting is off).
  double retry_tokens() const { return retry_budget_.tokens(); }

  /// Channel-virtual microseconds since construction.
  uint64_t virtual_now_us() const { return virtual_now_us_; }

  /// Advances virtual time without traffic — how a caller "waits out" the
  /// breaker cooldown during catch-up instead of wall-sleeping.
  void AdvanceVirtualTime(uint64_t us) { virtual_now_us_ += us; }

  const ChannelStats& stats() const { return stats_; }
  const std::string& peer() const { return peer_; }
  /// The underlying cloud when reachable in-process; nullptr when the
  /// channel speaks through a socket transport (the provider may be in
  /// another process entirely).
  cloud::CloudInfrastructure* cloud() { return cloud_; }
  CloudTransport* transport() { return transport_; }

 private:
  struct Metrics {
    Metrics();
    obs::Counter& retries;            // cloud.retries
    obs::Counter& breaker_opens;      // net.breaker_opens
    obs::Counter& deadline_exceeded;  // net.deadline_exceeded
    obs::Counter& retry_budget_denied;  // net.retry_budget_denied
    obs::Counter& pushbacks;            // net.pushbacks
  };

  using BatchPutOutcome = CloudTransport::BatchPutOutcome;

  /// The one attempt loop every op runs (defined in channel.cc): breaker
  /// admit, deadline budget, the attempt's OverloadContext, retry-after
  /// hint, virtual-clock charge, give-up rule, retry budget, backoff and
  /// stats. An op supplies only `attempt(uint32_t* delay_us) -> Reply`
  /// (one network attempt) and `judge(const Reply&)`, which classifies the
  /// reply (and, for put batches, merges its acks). Returns the reply that
  /// ended the op, or one carrying the channel's own give-up status.
  template <typename Reply, typename Attempt, typename Judge>
  Reply Call(const char* what, Attempt&& attempt, Judge&& judge);

  std::string MintToken();
  /// Charges an op-level give-up to the breaker; fires the give-up dump if
  /// it is a deadline exhaustion that opened the circuit.
  void RecordOpFailure(const Status& status, const std::string& what);
  /// The OverloadContext to arm around one attempt: remaining op budget
  /// (when propagation is on) + the channel's criticality class.
  OverloadContext AttemptContext(const DeadlineBudget& budget) const;
  /// Retry gate of the attempt loop: counts the attempt's pushback hint,
  /// spends one retry-budget token and computes the next delay (backoff
  /// stretched to honor the server's retry-after). Returns false when the
  /// bucket is dry — the op must fail with `*denied` instead of retrying
  /// (this is what caps fleet-wide retry amplification).
  bool AllowRetry(uint32_t hint_us, const char* what, uint64_t* delay_us,
                  Status* denied);

  cloud::CloudInfrastructure* cloud_;  // nullptr on the socket path.
  std::unique_ptr<CloudTransport> owned_transport_;
  CloudTransport* transport_;
  std::string peer_;
  ChannelOptions options_;
  Backoff backoff_;
  CircuitBreaker breaker_;
  RetryBudget retry_budget_;
  Metrics metrics_;
  ChannelStats stats_;
  uint64_t virtual_now_us_ = 0;
  uint64_t next_token_seq_ = 1;
};

}  // namespace tc::net

#endif  // TC_NET_CHANNEL_H_
