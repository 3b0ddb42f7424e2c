#include "tc/cloud/infrastructure.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>

#include "tc/obs/trace.h"

namespace tc::cloud {
namespace {

// splitmix64 finalizer: decorrelates the per-shard RNG streams derived from
// one user-facing adversary seed.
uint64_t MixSeed(uint64_t seed, uint64_t shard) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (shard + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Overload-plane observability, shared by every gate in the process (the
/// controller itself is common-layer and metric-free).
struct OverloadMetrics {
  obs::Counter& shed_expired;
  obs::Counter& admission_rejected;
  obs::Gauge& admission_limit;
  obs::Gauge& admission_in_flight;
  OverloadMetrics()
      : shed_expired(obs::MetricRegistry::Global().GetCounter(
            "cloud.overload.shed_expired")),
        admission_rejected(obs::MetricRegistry::Global().GetCounter(
            "cloud.overload.admission_rejected")),
        admission_limit(obs::MetricRegistry::Global().GetGauge(
            "cloud.overload.admission_limit")),
        admission_in_flight(obs::MetricRegistry::Global().GetGauge(
            "cloud.overload.in_flight")) {}
};

OverloadMetrics& GetOverloadMetrics() {
  static OverloadMetrics metrics;
  return metrics;
}

}  // namespace

OverloadGate::OverloadGate(AdmissionController* controller,
                           Criticality criticality) {
  if (OverloadDeadlineExpired()) {
    GetOverloadMetrics().shed_expired.Increment();
    status_ = Status::DeadlineExceeded(
        "deadline expired before provider execute (shed)");
    return;
  }
  if (controller == nullptr) return;
  uint32_t retry_after_us = 0;
  if (!controller->TryAcquire(criticality, &retry_after_us)) {
    OverloadMetrics& metrics = GetOverloadMetrics();
    metrics.admission_rejected.Increment();
    metrics.admission_limit.Set(static_cast<int64_t>(controller->limit()));
    SetRetryAfterHint(retry_after_us);
    status_ = Status::ResourceExhausted(
        "provider admission limit reached (retry after " +
        std::to_string(retry_after_us) + "us)");
    return;
  }
  controller_ = controller;
  slot_ = true;
  sample_ = criticality != Criticality::kCritical;
  start_us_ = OverloadNowUs();
}

OverloadGate::~OverloadGate() {
  if (!slot_) return;
  const uint64_t latency_us =
      sample_ ? std::max<uint64_t>(1, OverloadNowUs() - start_us_) : 0;
  controller_->Release(latency_us);
  OverloadMetrics& metrics = GetOverloadMetrics();
  metrics.admission_limit.Set(static_cast<int64_t>(controller_->limit()));
  metrics.admission_in_flight.Set(controller_->in_flight());
}

CloudInfrastructure::Metrics::Metrics()
    : put_batch_us(
          obs::MetricRegistry::Global().GetHistogram("cloud.put_batch_us")),
      get_us(obs::MetricRegistry::Global().GetHistogram("cloud.get_us")),
      send_us(obs::MetricRegistry::Global().GetHistogram("cloud.send_us")),
      receive_us(
          obs::MetricRegistry::Global().GetHistogram("cloud.receive_us")),
      txn_us(obs::MetricRegistry::Global().GetHistogram("cloud.txn_us")),
      reads_tampered(obs::MetricRegistry::Global().GetCounter(
          "cloud.adversary.reads_tampered")),
      reads_rolled_back(obs::MetricRegistry::Global().GetCounter(
          "cloud.adversary.reads_rolled_back")),
      messages_dropped(obs::MetricRegistry::Global().GetCounter(
          "cloud.adversary.messages_dropped")),
      messages_replayed(obs::MetricRegistry::Global().GetCounter(
          "cloud.adversary.messages_replayed")),
      net_faults(obs::MetricRegistry::Global().GetCounter("cloud.net.faults")),
      net_outages(
          obs::MetricRegistry::Global().GetCounter("cloud.net.outages")),
      txn_commits(
          obs::MetricRegistry::Global().GetCounter("cloud.txn.commits")),
      txn_aborts(obs::MetricRegistry::Global().GetCounter("cloud.txn.aborts")),
      txn_replays(
          obs::MetricRegistry::Global().GetCounter("cloud.txn.replays")),
      blob_lock_contention(obs::MetricRegistry::Global().GetGauge(
          "cloud.blob_lock_contention")),
      queue_lock_contention(obs::MetricRegistry::Global().GetGauge(
          "cloud.queue_lock_contention")) {}

CloudInfrastructure::CloudInfrastructure(const AdversaryConfig& adversary)
    : CloudInfrastructure(adversary, Options{}) {}

CloudInfrastructure::CloudInfrastructure(const AdversaryConfig& adversary,
                                         const Options& options)
    : options_(options),
      blobs_(options.blob_shards == 0 ? 1 : options.blob_shards),
      adversary_(adversary) {
  blob_rngs_.reserve(blobs_.shard_count());
  for (size_t i = 0; i < blobs_.shard_count(); ++i) {
    blob_rngs_.push_back(std::make_unique<RngSlot>(MixSeed(adversary.seed, i)));
  }
  size_t queue_shards = options.queue_shards == 0 ? 1 : options.queue_shards;
  queue_shards_.reserve(queue_shards);
  for (size_t i = 0; i < queue_shards; ++i) {
    queue_shards_.push_back(std::make_unique<QueueShard>(
        MixSeed(adversary.seed, blobs_.shard_count() + i)));
  }
}

size_t CloudInfrastructure::QueueShardIndex(
    const std::string& recipient) const {
  return std::hash<std::string>{}(recipient) % queue_shards_.size();
}

std::unique_lock<std::mutex> CloudInfrastructure::LockQueueShard(
    const QueueShard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

AdversaryConfig CloudInfrastructure::SnapshotAdversary() const {
  std::shared_lock<std::shared_mutex> lock(adversary_mu_);
  return adversary_;
}

void CloudInfrastructure::set_adversary(const AdversaryConfig& config) {
  std::unique_lock<std::shared_mutex> lock(adversary_mu_);
  adversary_ = config;
}

AdversaryConfig CloudInfrastructure::adversary_config() const {
  return SnapshotAdversary();
}

void CloudInfrastructure::ChargeLatency() const {
  if (options_.op_latency_us == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(options_.op_latency_us));
}

namespace {

uint64_t FaultOrdinal(const FaultDecision& decision) {
  return decision.clean() ? 0 : decision.ordinal;
}

template <typename T>
struct IsResult : std::false_type {};
template <typename T>
struct IsResult<Result<T>> : std::true_type {};

/// The reply a caller gets when the request or its reply was lost, or the
/// overload gate shed it.
template <typename Reply>
Reply LostReply(Status status) {
  if constexpr (IsResult<Reply>::value) {
    return Reply(std::move(status));
  } else {
    Reply reply;
    reply.status = std::move(status);
    return reply;
  }
}

// A network duplicate reaches the provider a second time. An aborted (or
// rejected) first commit left no token record and no state change, so its
// copy would fail identically: only a committed commit is re-delivered.
bool RedeliverDuplicate(const TxnOutcome& outcome) { return outcome.committed; }
template <typename Reply>
bool RedeliverDuplicate(const Reply& /*reply*/) {
  return true;
}

}  // namespace

template <typename Execute>
auto CloudInfrastructure::Edge(const EdgeShape& shape, FaultDecision* decision,
                               const Execute& execute) {
  using Reply = std::invoke_result_t<const Execute&, const FaultDecision&>;
  if (NetworkFaultInjector* injector = fault_injector()) {
    *decision = injector->Next(shape.op);
    if (!decision->clean()) metrics_.net_faults.Increment();
  }
  if (decision->outage || decision->throttled) {
    metrics_.net_outages.Increment();
    return LostReply<Reply>(Status::Unavailable(
        decision->outage ? "provider outage" : "provider throttled"));
  }
  // A read is side-effect free, so a lost reply is indistinguishable from
  // a lost request; an atomic request cannot be torn, only lost whole.
  if (decision->drop_request || (shape.read && decision->drop_ack) ||
      (shape.atomic && decision->item_seed != 0)) {
    return LostReply<Reply>(
        Status::Unavailable(std::string(shape.name) + " lost in flight"));
  }
  // Overload plane: gate after the fault draw (so the injector's ordinal
  // stream is identical plane on/off) and before any provider work.
  // Health scrapes are admission-critical: the operator must be able to
  // see an overloaded provider, so a scrape is never turned away by the
  // very controller it observes (a dead scrape is still shed).
  OverloadGate gate(admission_controller(),
                    shape.critical ? Criticality::kCritical
                                   : CurrentOverloadContext().criticality);
  if (gate.shed()) return LostReply<Reply>(gate.status());
  if (decision->cpu_burn_us != 0 && !shape.critical) {
    BurnCpuUs(decision->cpu_burn_us);
  }
  Reply reply = execute(*decision);
  if (decision->duplicate && !shape.read && RedeliverDuplicate(reply)) {
    // Network retransmission: the provider applies the request again and
    // its token/dedup tables answer the copy with the original outcome.
    execute(*decision);
  }
  if (decision->drop_ack && !shape.read) {
    // Applied, but the caller never learns it: the retry under the same
    // token is answered from the token/dedup tables.
    return LostReply<Reply>(
        Status::Unavailable(std::string(shape.name) + " ack lost"));
  }
  return reply;
}

CloudInfrastructure::BatchPutOutcome CloudInfrastructure::PutBlobBatchRpc(
    const std::vector<std::pair<std::string, Bytes>>& items,
    const std::vector<std::string>& tokens) {
  obs::TraceSpan span(obs::kChildOnly, "cloud", "put_batch_rpc",
                      std::to_string(items.size()) + " blobs",
                      &metrics_.put_batch_us);
  ChargeLatency();  // One round-trip for the whole batch.
  // Applies the batch, or the surviving part of a torn one, and records
  // what reached the provider (a network duplicate recomputes the same).
  size_t kept = 0;
  uint64_t bytes = 0;
  auto apply = [&](const FaultDecision& decision) {
    BatchPutOutcome applied;
    applied.versions.assign(items.size(), 0);
    applied.acked.assign(items.size(), 0);
    // `keep` stays empty (meaning keep-all) on the clean path: no per-call
    // allocation unless the batch is actually torn.
    std::vector<uint8_t> keep;
    kept = items.size();
    if (decision.item_seed != 0) {
      keep.assign(items.size(), 1);
      Rng item_rng(decision.item_seed);
      for (size_t i = 0; i < items.size(); ++i) {
        if (item_rng.NextBernoulli(decision.item_loss)) {
          keep[i] = 0;
          --kept;
        }
      }
    }
    std::vector<std::pair<std::string, Bytes>> sub_items;
    std::vector<std::string> sub_tokens;
    std::vector<size_t> sub_index;
    const bool whole = kept == items.size();
    if (!whole) {
      sub_items.reserve(kept);
      sub_tokens.reserve(kept);
      sub_index.reserve(kept);
      for (size_t i = 0; i < items.size(); ++i) {
        if (!keep[i]) continue;
        sub_items.push_back(items[i]);
        sub_tokens.push_back(tokens[i]);
        sub_index.push_back(i);
      }
    }
    std::vector<uint64_t> versions = blobs_.PutBatchIdempotent(
        whole ? items : sub_items, whole ? tokens : sub_tokens);
    bytes = 0;
    for (size_t j = 0; j < versions.size(); ++j) {
      size_t i = whole ? j : sub_index[j];
      applied.versions[i] = versions[j];
      applied.acked[i] = 1;
      bytes += items[i].second.size();
    }
    if (!whole) {
      applied.status = Status::Unavailable(
          "batch torn in flight: " + std::to_string(items.size() - kept) +
          " of " + std::to_string(items.size()) + " items lost");
    }
    return applied;
  };

  FaultDecision decision;
  BatchPutOutcome outcome;
  if (items.size() != tokens.size()) {
    outcome.status =
        Status::InvalidArgument("put batch: one token per item required");
  } else {
    outcome = Edge(EdgeShape{NetOp::kPutBatch, "put batch"}, &decision, apply);
  }
  stats_.blob_puts.fetch_add(kept, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(bytes, std::memory_order_relaxed);
  // A lost request or reply acks nothing.
  outcome.versions.resize(items.size(), 0);
  outcome.acked.resize(items.size(), 0);
  outcome.delay_us = decision.delay_us;
  outcome.fault_ordinal = FaultOrdinal(decision);
  return outcome;
}

Result<Bytes> CloudInfrastructure::GetBlobRpc(const std::string& id,
                                              uint32_t* delay_us) {
  FaultDecision decision;
  Result<Bytes> got = Edge(EdgeShape{NetOp::kGet, "get", /*read=*/true},
                           &decision,
                           [&](const FaultDecision&) { return GetBlob(id); });
  if (delay_us != nullptr) *delay_us = decision.delay_us;
  return got;
}

obs::TelemetryHub::ReportOutcome CloudInfrastructure::ReportTelemetryRpc(
    const Bytes& frame, uint32_t* delay_us) {
  FaultDecision decision;
  obs::TelemetryHub::ReportOutcome outcome = Edge(
      EdgeShape{NetOp::kTelemetry, "telemetry report", /*read=*/false,
                /*atomic=*/true},
      &decision, [&](const FaultDecision&) {
        return telemetry_hub_.ReportEncoded(frame);
      });
  if (delay_us != nullptr) *delay_us = decision.delay_us;
  return outcome;
}

Result<std::string> CloudInfrastructure::ScrapeTelemetryRpc(
    uint32_t* delay_us) {
  FaultDecision decision;
  Result<std::string> json = Edge(
      EdgeShape{NetOp::kTelemetry, "telemetry scrape", /*read=*/true,
                /*atomic=*/false, /*critical=*/true},
      &decision, [&](const FaultDecision&) -> Result<std::string> {
        return telemetry_hub_.ScrapeJson();
      });
  if (delay_us != nullptr) *delay_us = decision.delay_us;
  return json;
}

TxnOutcome CloudInfrastructure::CommitTxnRpc(const TxnRequest& req) {
  FaultDecision decision;
  // Overload plane: a shed txn returns before the commit, so the token
  // table never records it — the client's retry under the same token
  // executes fresh (replayed == false), which keeps shedding replay-safe.
  TxnOutcome outcome = Edge(
      EdgeShape{NetOp::kTxnCommit, "txn", /*read=*/false, /*atomic=*/true},
      &decision, [&](const FaultDecision&) { return ApplyTxn(req); });
  outcome.delay_us = decision.delay_us;
  outcome.fault_ordinal = FaultOrdinal(decision);
  return outcome;
}

Result<SnapshotDescriptor> CloudInfrastructure::GetSnapshotRpc(
    uint32_t* delay_us) {
  FaultDecision decision;
  Result<SnapshotDescriptor> snap = Edge(
      EdgeShape{NetOp::kGet, "snapshot", /*read=*/true}, &decision,
      [&](const FaultDecision&) -> Result<SnapshotDescriptor> {
        return blobs_.Snapshot();
      });
  if (delay_us != nullptr) *delay_us = decision.delay_us;
  return snap;
}

Result<SnapshotRead> CloudInfrastructure::GetBlobAtSnapshotRpc(
    const std::string& id, const SnapshotDescriptor& snap,
    uint32_t* delay_us) {
  FaultDecision decision;
  Result<SnapshotRead> read = Edge(
      EdgeShape{NetOp::kGet, "snapshot get", /*read=*/true}, &decision,
      [&](const FaultDecision&) -> Result<SnapshotRead> {
        obs::ScopedTimer timer(&metrics_.get_us);
        ChargeLatency();
        stats_.blob_gets.fetch_add(1, std::memory_order_relaxed);
        TC_ASSIGN_OR_RETURN(SnapshotRead read, blobs_.GetAtSnapshot(id, snap));
        stats_.bytes_out.fetch_add(read.data.size(),
                                   std::memory_order_relaxed);
        return read;
      });
  if (delay_us != nullptr) *delay_us = decision.delay_us;
  return read;
}

TxnOutcome CloudInfrastructure::ApplyTxn(const TxnRequest& req) {
  obs::TraceSpan span(obs::kChildOnly, "cloud", "txn_commit", req.token,
                      &metrics_.txn_us);
  ChargeLatency();
  TxnOutcome outcome = blobs_.CommitTxn(req);
  if (outcome.committed && !outcome.replayed) {
    uint64_t bytes = 0;
    for (const TxnWrite& w : req.writes) bytes += w.data.size();
    stats_.blob_puts.fetch_add(req.writes.size(), std::memory_order_relaxed);
    stats_.bytes_in.fetch_add(bytes, std::memory_order_relaxed);
    stats_.txn_commits.fetch_add(1, std::memory_order_relaxed);
    metrics_.txn_commits.Increment();
  } else if (outcome.replayed) {
    metrics_.txn_replays.Increment();
  } else if (outcome.status.IsAborted()) {
    stats_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
    metrics_.txn_aborts.Increment();
  }
  return outcome;
}

Result<Bytes> CloudInfrastructure::GetBlob(const std::string& id) {
  obs::TraceSpan span(obs::kChildOnly, "cloud", "get", id, &metrics_.get_us);
  ChargeLatency();
  stats_.blob_gets.fetch_add(1, std::memory_order_relaxed);
  const AdversaryConfig adversary = SnapshotAdversary();
  RngSlot& rng_slot = *blob_rngs_[blobs_.ShardIndex(id)];

  // Rollback attack: serve an older version as if it were the latest.
  if (adversary.rollback_read_prob > 0) {
    std::unique_lock<std::mutex> rng_lock(rng_slot.mu);
    if (rng_slot.rng.NextBernoulli(adversary.rollback_read_prob)) {
      auto latest = blobs_.LatestVersion(id);
      if (latest.ok() && *latest > 1) {
        uint64_t stale = 1 + rng_slot.rng.NextBelow(*latest - 1);
        rng_lock.unlock();
        adversary_stats_.reads_rolled_back.fetch_add(
            1, std::memory_order_relaxed);
        metrics_.reads_rolled_back.Increment();
        TC_ASSIGN_OR_RETURN(Bytes data, blobs_.GetVersion(id, stale));
        stats_.bytes_out.fetch_add(data.size(), std::memory_order_relaxed);
        return data;
      }
    }
  }

  TC_ASSIGN_OR_RETURN(Bytes data, blobs_.Get(id));

  // Tampering attack: flip a few bytes in flight (the stored blob stays
  // intact — a weakly-malicious provider leaves no durable evidence).
  if (adversary.tamper_read_prob > 0 && !data.empty()) {
    std::unique_lock<std::mutex> rng_lock(rng_slot.mu);
    if (rng_slot.rng.NextBernoulli(adversary.tamper_read_prob)) {
      adversary_stats_.reads_tampered.fetch_add(1, std::memory_order_relaxed);
      metrics_.reads_tampered.Increment();
      size_t flips = 1 + rng_slot.rng.NextBelow(3);
      for (size_t i = 0; i < flips; ++i) {
        data[rng_slot.rng.NextBelow(data.size())] ^=
            static_cast<uint8_t>(1 + rng_slot.rng.NextBelow(255));
      }
    }
  }
  stats_.bytes_out.fetch_add(data.size(), std::memory_order_relaxed);
  return data;
}

Result<Bytes> CloudInfrastructure::GetBlobVersion(const std::string& id,
                                                  uint64_t version) {
  obs::ScopedTimer timer(&metrics_.get_us);
  ChargeLatency();
  stats_.blob_gets.fetch_add(1, std::memory_order_relaxed);
  TC_ASSIGN_OR_RETURN(Bytes data, blobs_.GetVersion(id, version));
  stats_.bytes_out.fetch_add(data.size(), std::memory_order_relaxed);
  return data;
}

Result<uint64_t> CloudInfrastructure::LatestBlobVersion(
    const std::string& id) const {
  return blobs_.LatestVersion(id);
}

std::vector<std::string> CloudInfrastructure::ListBlobs(
    const std::string& prefix) const {
  return blobs_.List(prefix);
}

bool CloudInfrastructure::BlobExists(const std::string& id) const {
  return blobs_.Exists(id);
}

uint64_t CloudInfrastructure::Send(const std::string& from,
                                   const std::string& to,
                                   const std::string& topic,
                                   const Bytes& payload) {
  obs::TraceSpan span(obs::kChildOnly, "cloud", "send", topic,
                      &metrics_.send_us);
  ChargeLatency();
  stats_.messages_sent.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(payload.size(), std::memory_order_relaxed);
  const AdversaryConfig adversary = SnapshotAdversary();
  uint64_t id = next_message_id_.fetch_add(1, std::memory_order_relaxed);
  Message msg{id, from, to, topic, payload};

  QueueShard& shard = *queue_shards_[QueueShardIndex(to)];
  auto lock = LockQueueShard(shard);
  // Drop attack: the message silently disappears (the sender still gets an
  // id back — the provider acknowledged, then "lost" it).
  if (adversary.drop_message_prob > 0 &&
      shard.rng.NextBernoulli(adversary.drop_message_prob)) {
    adversary_stats_.messages_dropped.fetch_add(1, std::memory_order_relaxed);
    metrics_.messages_dropped.Increment();
    return id;
  }
  shard.queues[to].push_back(std::move(msg));
  return id;
}

std::vector<Message> CloudInfrastructure::Receive(
    const std::string& recipient) {
  obs::TraceSpan span(obs::kChildOnly, "cloud", "receive", recipient,
                      &metrics_.receive_us);
  ChargeLatency();
  const AdversaryConfig adversary = SnapshotAdversary();
  std::vector<Message> out;
  QueueShard& shard = *queue_shards_[QueueShardIndex(recipient)];
  {
    auto lock = LockQueueShard(shard);
    auto it = shard.queues.find(recipient);
    if (it != shard.queues.end()) {
      while (!it->second.empty()) {
        out.push_back(std::move(it->second.front()));
        it->second.pop_front();
      }
    }
    // Replay attack: re-deliver a previously delivered message.
    std::vector<Message>& history = shard.delivered_history[recipient];
    if (adversary.replay_message_prob > 0 && !history.empty() &&
        shard.rng.NextBernoulli(adversary.replay_message_prob)) {
      adversary_stats_.messages_replayed.fetch_add(1,
                                                   std::memory_order_relaxed);
      metrics_.messages_replayed.Increment();
      out.push_back(history[shard.rng.NextBelow(history.size())]);
    }
    history.insert(history.end(), out.begin(), out.end());
    // Cap replay history to bound memory in long simulations.
    if (history.size() > 1024) {
      history.erase(history.begin(),
                    history.begin() + (history.size() - 1024));
    }
  }
  uint64_t bytes = 0;
  for (const Message& msg : out) bytes += msg.payload.size();
  stats_.bytes_out.fetch_add(bytes, std::memory_order_relaxed);
  stats_.messages_delivered.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

size_t CloudInfrastructure::PendingCount(const std::string& recipient) const {
  const QueueShard& shard = *queue_shards_[QueueShardIndex(recipient)];
  auto lock = LockQueueShard(shard);
  auto it = shard.queues.find(recipient);
  return it == shard.queues.end() ? 0 : it->second.size();
}

CloudStats CloudInfrastructure::stats() const {
  // Refresh the contention gauges on the snapshot path (keeping the
  // try-lock hot path free of extra stores).
  metrics_.blob_lock_contention.Set(
      static_cast<int64_t>(blobs_.lock_contention()));
  metrics_.queue_lock_contention.Set(
      static_cast<int64_t>(queue_lock_contention()));
  CloudStats out;
  out.blob_puts = stats_.blob_puts.load(std::memory_order_relaxed);
  out.blob_gets = stats_.blob_gets.load(std::memory_order_relaxed);
  out.messages_sent = stats_.messages_sent.load(std::memory_order_relaxed);
  out.messages_delivered =
      stats_.messages_delivered.load(std::memory_order_relaxed);
  out.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  out.txn_commits = stats_.txn_commits.load(std::memory_order_relaxed);
  out.txn_aborts = stats_.txn_aborts.load(std::memory_order_relaxed);
  return out;
}

AdversaryStats CloudInfrastructure::adversary_stats() const {
  AdversaryStats out;
  out.reads_tampered =
      adversary_stats_.reads_tampered.load(std::memory_order_relaxed);
  out.reads_rolled_back =
      adversary_stats_.reads_rolled_back.load(std::memory_order_relaxed);
  out.messages_dropped =
      adversary_stats_.messages_dropped.load(std::memory_order_relaxed);
  out.messages_replayed =
      adversary_stats_.messages_replayed.load(std::memory_order_relaxed);
  return out;
}

uint64_t CloudInfrastructure::queue_lock_contention() const {
  uint64_t total = 0;
  for (const auto& shard : queue_shards_) {
    total += shard->contention.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace tc::cloud
