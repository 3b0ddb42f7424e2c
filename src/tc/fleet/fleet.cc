#include "tc/fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "tc/cloud/txn.h"
#include "tc/common/codec.h"
#include "tc/common/overload.h"
#include "tc/common/rng.h"
#include "tc/obs/telemetry.h"
#include "tc/obs/trace.h"

namespace tc::fleet {
namespace {

// splitmix64 finalizer — one decorrelated workload stream per cell.
uint64_t MixSeed(uint64_t seed, uint64_t cell) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (cell + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string CellId(size_t index) {
  return "fleet/cell" + std::to_string(index);
}

std::string SharedTxnKey(size_t k) {
  return "txn/shared/" + std::to_string(k);
}

// Shared-key payloads are bare u64 counters: a committed read-modify-write
// sets value = read_value + 1, so under first-committer-wins every key's
// counter always equals its version number — the exactness audit.
Bytes EncodeCounter(uint64_t value) {
  BinaryWriter w;
  w.PutU64(value);
  return w.Take();
}

Result<uint64_t> DecodeCounter(const Bytes& data) {
  BinaryReader r(data);
  return r.GetU64();
}

// Per-cell telemetry plumbing (FleetOptions::telemetry). Each cell records
// its tcell.* flows into a PRIVATE registry — the simulated cells share one
// process, so the global registry would fold every cell into a single
// stream and the shipped deltas would double-count — mirrors counters and
// histograms into the optional shared ground-truth registry, and ships
// sequence-numbered delta frames through the cell's channel. All records
// bypass the global obs switch: the shipped frame is this harness's product
// and must not change shape with the obs mode.
class CellTelemetry {
 public:
  enum class ShipResult {
    kNothing,  ///< No pending frame and an empty delta — fully flushed.
    kAcked,    ///< The hub acknowledged the frame (applied or duplicate).
    kPending,  ///< Transient loss; the identical frame reships later.
    kFailed,   ///< Definitive failure (see last_error()).
  };

  CellTelemetry(const FleetOptions& options, const std::string& source)
      : enabled_(options.telemetry),
        every_(options.telemetry_every_rounds),
        gt_(enabled_ ? options.telemetry_ground_truth : nullptr),
        shipper_(&registry_, source) {}

  bool enabled() const { return enabled_; }
  /// True when the round that just finished (0-based) should ship.
  bool Due(size_t round) const {
    return enabled_ && every_ > 0 && (round + 1) % every_ == 0;
  }

  /// A counter pre-resolved at cell start (registry mutex + map lookup paid
  /// once, not per op — the telemetry leg of bench_obs_overhead holds this
  /// to the same <5% bar as the rest of obs), mirrored into the shared
  /// ground-truth registry when one is wired up. Disabled telemetry yields
  /// null handles: Add() is then a branch and nothing else.
  class Flow {
   public:
    void Add(uint64_t n = 1) const {
      if (local_ == nullptr || n == 0) return;
      local_->IncrementAlways(n);
      if (gt_ != nullptr) gt_->IncrementAlways(n);
    }

   private:
    friend class CellTelemetry;
    obs::Counter* local_ = nullptr;
    obs::Counter* gt_ = nullptr;
  };
  /// Histogram analogue of Flow.
  class Timing {
   public:
    void Record(uint64_t us) const {
      if (local_ == nullptr) return;
      local_->RecordAlways(us);
      if (gt_ != nullptr) gt_->RecordAlways(us);
    }

   private:
    friend class CellTelemetry;
    obs::Histogram* local_ = nullptr;
    obs::Histogram* gt_ = nullptr;
  };

  Flow flow(const char* name) {
    Flow f;
    if (enabled_) {
      f.local_ = &registry_.GetCounter(name);
      if (gt_ != nullptr) f.gt_ = &gt_->GetCounter(name);
    }
    return f;
  }
  Timing timing(const char* name) {
    Timing t;
    if (enabled_) {
      t.local_ = &registry_.GetHistogram(name);
      if (gt_ != nullptr) t.gt_ = &gt_->GetHistogram(name);
    }
    return t;
  }
  /// Gauges are per-source state the hub sums across sources; a single
  /// shared registry cannot represent that, so they are not mirrored.
  void SetGauge(const char* name, int64_t v) {
    if (!enabled_) return;
    registry_.GetGauge(name).SetAlways(v);
  }

  /// One ship: build (or re-take the pending) encoded frame and report it
  /// through the cell's channel, whose retries resend the identical bytes
  /// (the hub dedups a lost ack). An applied or duplicate answer
  /// acknowledges the frame; a transient loss leaves it pending.
  ShipResult Ship(net::ResilientChannel& channel) {
    uint64_t seq = 0;
    const Bytes* encoded = shipper_.BuildEncoded(&seq);
    if (encoded == nullptr) return ShipResult::kNothing;
    return Resolve(channel.ReportTelemetry(*encoded), seq);
  }

  void Finish(FleetCellResult* result) const {
    if (!enabled_) return;
    result->telemetry_frames = shipper_.frames_acked();
    result->telemetry_unshipped =
        shipper_.frames_built() - shipper_.frames_acked();
  }
  const Status& last_error() const { return last_error_; }

 private:
  ShipResult Resolve(const obs::TelemetryHub::ReportOutcome& outcome,
                     uint64_t seq) {
    if (outcome.status.ok() || outcome.duplicate) {
      shipper_.Acked(seq);
      return ShipResult::kAcked;
    }
    if (outcome.status.IsTransient() ||
        outcome.status.IsDeadlineExceeded()) {
      return ShipResult::kPending;
    }
    last_error_ = outcome.status;
    return ShipResult::kFailed;
  }

  bool enabled_;
  size_t every_;
  obs::MetricRegistry* gt_;
  obs::MetricRegistry registry_;
  obs::TelemetryShipper shipper_;
  Status last_error_ = Status::OK();
};

FleetLatency ExtractLatency(const obs::HistogramSnapshot& after,
                            const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot delta = after.Minus(before);
  FleetLatency out;
  out.count = delta.count;
  out.p50_us = delta.Percentile(0.50);
  out.p95_us = delta.Percentile(0.95);
  out.p99_us = delta.Percentile(0.99);
  out.max_us = static_cast<double>(delta.max);
  out.mean_us = delta.Mean();
  return out;
}

}  // namespace

FleetRunner::FleetRunner(cloud::CloudInfrastructure* cloud,
                         const FleetOptions& options)
    : cloud_(cloud),
      options_(options),
      in_process_(cloud),
      transport_(options.transport != nullptr ? options.transport
                                              : &in_process_),
      put_batch_us_(
          obs::MetricRegistry::Global().GetHistogram("fleet.put_batch_us")),
      get_us_(obs::MetricRegistry::Global().GetHistogram("fleet.get_us")) {}

void FleetRunner::HealOutage() {
  if (auto* injector = cloud_->fault_injector()) injector->ForceOutage(false);
  healed_at_us_.store(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count()),
      std::memory_order_release);
}

net::ChannelOptions FleetRunner::CellChannelOptions(size_t cell_index) const {
  net::ChannelOptions channel_options = options_.channel;
  // Decorrelated jitter stream per cell, so retries do not synchronize.
  channel_options.seed = MixSeed(options_.seed ^ 0x6e65742d6a697474ULL,
                                 cell_index);
  return channel_options;
}

void FleetRunner::RunCell(size_t cell_index, FleetCellResult* result) {
  Rng rng(MixSeed(options_.seed, cell_index));
  result->cell_id = CellId(cell_index);
  const net::ChannelOptions channel_options = CellChannelOptions(cell_index);
  net::ResilientChannel channel(transport_, result->cell_id, channel_options);

  CellTelemetry telemetry(options_, result->cell_id);
  const CellTelemetry::Timing t_put_us = telemetry.timing("tcell.put_batch_us");
  const CellTelemetry::Timing t_get_us = telemetry.timing("tcell.get_us");
  const CellTelemetry::Flow t_puts = telemetry.flow("tcell.puts");
  const CellTelemetry::Flow t_gets = telemetry.flow("tcell.gets");
  const CellTelemetry::Flow t_gets_ok = telemetry.flow("tcell.gets_ok");
  const CellTelemetry::Flow t_gets_unavailable =
      telemetry.flow("tcell.gets_unavailable");
  const CellTelemetry::Flow t_sends = telemetry.flow("tcell.sends");
  const CellTelemetry::Flow t_received = telemetry.flow("tcell.msgs_received");

  const size_t docs = options_.docs_per_cell;
  auto blob_of = [&](size_t doc) {
    return result->cell_id + "/doc" + std::to_string(doc);
  };

  // The cell's view of its writes: last ACKED version/payload per doc,
  // plus a pending slot for the newest write the provider has not acked
  // (last-writer-wins: a newer write supersedes an older pending one —
  // the superseded write may still land server-side under its own token,
  // but always at an older version than the newer write's ack).
  std::vector<uint64_t> acked_version(docs, 0);
  std::vector<Bytes> acked_payload(docs);
  std::vector<uint8_t> has_pending(docs, 0);
  std::vector<Bytes> pending_payload(docs);
  std::vector<std::string> pending_token(docs);
  uint64_t write_seq = 0;

  std::vector<std::pair<std::string, Bytes>> batch;
  std::vector<std::string> tokens;
  std::vector<size_t> doc_of;

  auto pending_count = [&] {
    size_t n = 0;
    for (size_t doc = 0; doc < docs; ++doc) n += has_pending[doc];
    return n;
  };
  // Gauges carry the cell's current state into the frame about to ship:
  // degraded-or-not and the simulated outbox backlog (pending writes).
  auto publish_gauges = [&] {
    telemetry.SetGauge(obs::kDegradedGaugeName, channel.degraded() ? 1 : 0);
    telemetry.SetGauge(obs::kOutboxDepthGaugeName,
                       static_cast<int64_t>(pending_count()));
  };

  // Applies one PutBatch outcome to the per-doc slots. Returns false (and
  // sets the cell status) on a version anomaly. An acked version must be
  // exactly the previous ack + 1 while the channel has never retried and
  // no write was ever deferred (only this cell writes its docs, so that is
  // the safety check); after a lost ack it need only be strictly above
  // the previous ack, since unacked writes legitimately consume versions.
  auto apply_acks =
      [&](const net::ResilientChannel::PutBatchResult& outcome) -> bool {
    const bool exact = channel.stats().retries == 0 && result->deferred == 0;
    for (size_t j = 0; j < batch.size(); ++j) {
      const size_t doc = doc_of[j];
      if (outcome.acked[j]) {
        if (exact ? outcome.versions[j] != acked_version[doc] + 1
                  : outcome.versions[j] <= acked_version[doc]) {
          result->status = Status::Internal(
              result->cell_id + ": non-monotonic version for doc" +
              std::to_string(doc) + ": got " +
              std::to_string(outcome.versions[j]) + " after " +
              std::to_string(acked_version[doc]));
          return false;
        }
        acked_version[doc] = outcome.versions[j];
        acked_payload[doc] = batch[j].second;
        // Whether this item was the pending retry or a fresh write that
        // superseded it, the doc's newest write is now acked.
        has_pending[doc] = 0;
      } else {
        has_pending[doc] = 1;
        pending_payload[doc] = batch[j].second;
        pending_token[doc] = tokens[j];
      }
    }
    return true;
  };

  std::vector<uint8_t> in_batch(docs, 0);
  for (size_t round = 0; round < options_.rounds_per_cell; ++round) {
    // --- Batched push: this round's fresh writes + pending retries. ---
    batch.clear();
    tokens.clear();
    doc_of.clear();
    std::fill(in_batch.begin(), in_batch.end(), 0);
    for (size_t j = 0; j < options_.put_batch; ++j) {
      size_t doc = (round * options_.put_batch + j) % options_.docs_per_cell;
      batch.emplace_back(blob_of(doc), rng.NextBytes(options_.payload_bytes));
      // Built in place: token minting is on the fault-free hot path.
      tokens.emplace_back();
      std::string& token = tokens.back();
      token.reserve(result->cell_id.size() + 24);
      token += result->cell_id;
      token += "/doc";
      token += std::to_string(doc);
      token += "/w";
      token += std::to_string(++write_seq);
      doc_of.push_back(doc);
      in_batch[doc] = 1;
    }
    const size_t fresh = batch.size();
    for (size_t doc = 0; doc < docs; ++doc) {
      if (!has_pending[doc] || in_batch[doc]) continue;
      batch.emplace_back(blob_of(doc), pending_payload[doc]);
      tokens.push_back(pending_token[doc]);  // SAME token: at-most-once.
      doc_of.push_back(doc);
    }

    obs::Stopwatch put_timer;
    auto outcome = channel.PutBatch(batch, tokens);
    const uint64_t put_elapsed_us = put_timer.ElapsedUs();
    put_batch_us_.RecordAlways(put_elapsed_us);
    t_put_us.Record(put_elapsed_us);
    result->puts += fresh;
    t_puts.Add(fresh);
    if (!apply_acks(outcome)) return;
    if (!outcome.status.ok()) {
      if (outcome.status.IsTransient() ||
          outcome.status.IsDeadlineExceeded()) {
        // Degraded, not dead: the unacked items sit in their pending
        // slots and ride along with future rounds and the drain.
        for (size_t j = 0; j < fresh; ++j) {
          if (!outcome.acked[j]) ++result->deferred;
        }
      } else {
        result->status = outcome.status;
        return;
      }
    }

    // --- Metadata-first pulls over the already-written range. ---
    size_t written = std::min((round + 1) * options_.put_batch,
                              options_.docs_per_cell);
    for (size_t g = 0; g < options_.gets_per_round; ++g) {
      size_t doc = rng.NextBelow(written);
      obs::Stopwatch get_timer;
      auto data = channel.Get(blob_of(doc));
      const uint64_t get_elapsed_us = get_timer.ElapsedUs();
      get_us_.RecordAlways(get_elapsed_us);
      t_get_us.Record(get_elapsed_us);
      ++result->gets;
      t_gets.Add();
      if (!data.ok()) {
        const Status& s = data.status();
        if (s.IsTransient() || s.IsDeadlineExceeded()) {
          ++result->gets_unavailable;  // Partitioned read, not a failure.
          t_gets_unavailable.Add();
          continue;
        }
        if (s.code() == StatusCode::kNotFound && acked_version[doc] == 0) {
          continue;  // Nothing of ours ever landed — legitimate.
        }
        result->status = Status::IntegrityViolation(
            result->cell_id + ": read of doc" + std::to_string(doc) +
            " failed although version " +
            std::to_string(acked_version[doc]) + " was acked: " +
            s.ToString());
        return;
      }
      t_gets_ok.Add();
      // Only a doc with no write in flight has a predictable latest
      // payload; a pending (or just-superseded) write may or may not have
      // landed yet.
      if (options_.verify_reads && !has_pending[doc] &&
          acked_version[doc] > 0 && *data != acked_payload[doc]) {
        result->status = Status::IntegrityViolation(
            result->cell_id + ": read of doc" + std::to_string(doc) +
            " does not match the acknowledged write");
        return;
      }
    }

    // --- Bus traffic: occasional aggregate to a peer, drain own inbox. ---
    if (options_.cells > 1 && rng.NextBernoulli(options_.send_prob)) {
      size_t peer = rng.NextBelow(options_.cells - 1);
      if (peer >= cell_index) ++peer;  // Never self.
      cloud_->Send(result->cell_id, CellId(peer), "aggregate",
                   rng.NextBytes(32));
      ++result->sends;
      t_sends.Add();
    }
    const size_t received = cloud_->Receive(result->cell_id).size();
    result->messages_received += received;
    t_received.Add(received);

    if (telemetry.Due(round)) {
      publish_gauges();
      if (telemetry.Ship(channel) == CellTelemetry::ShipResult::kFailed) {
        result->status = telemetry.last_error();
        return;
      }
    }

    if (options_.outage_first_rounds > 0 &&
        round + 1 == options_.outage_first_rounds &&
        ++outage_passed_ == options_.cells) {
      HealOutage();
    }
  }

  // --- End-of-run drain: push every pending write until acked. The drain
  // (and the telemetry flush after it) is catch-up work, not foreground
  // traffic: mark the channel kBackground so an overloaded provider sheds
  // these legs first. The channel dies with this function, so the class
  // never leaks into foreground rounds. ---
  channel.set_criticality(Criticality::kBackground);
  size_t attempts = 0;
  int outage_waits = 0;
  while (pending_count() > 0) {
    auto* injector = cloud_->fault_injector();
    if (injector != nullptr && injector->forced_outage()) {
      // Other cells are still inside their forced-outage rounds; nothing
      // can land until the last one passes. Real time has to elapse here
      // (the heal is another thread's doing), bounded hard.
      if (++outage_waits > 60000) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (++attempts > options_.drain_attempts) break;
    if (attempts == options_.drain_attempts / 2) {
      // Anti-starvation escalation (see the txn drain): a half-spent drain
      // budget means admission keeps shedding the background class —
      // promote so the drain completes instead of starving out.
      channel.set_criticality(Criticality::kNormal);
    }
    if (channel.degraded()) {
      // Wait out the breaker cooldown on the virtual clock.
      channel.AdvanceVirtualTime(channel_options.breaker.open_cooldown_us);
    }
    batch.clear();
    tokens.clear();
    doc_of.clear();
    for (size_t doc = 0; doc < docs; ++doc) {
      if (!has_pending[doc]) continue;
      batch.emplace_back(blob_of(doc), pending_payload[doc]);
      tokens.push_back(pending_token[doc]);
      doc_of.push_back(doc);
    }
    const size_t before = pending_count();
    auto outcome = channel.PutBatch(batch, tokens);
    if (!apply_acks(outcome)) return;
    result->drained += before - pending_count();
    if (!outcome.status.ok() && !outcome.status.IsTransient() &&
        !outcome.status.IsDeadlineExceeded()) {
      result->status = outcome.status;
      return;
    }
  }

  // --- Convergence: ground-truth read-back against the store itself
  // (below the edge — the invariant is about provider *state*, and the
  // network may still be lossy). Every acked write must be the latest.
  // Skipped on a provably clean run (no injector, nothing ever deferred):
  // there every round's verify already checked every read, and the audit
  // would bill one provider RTT per doc to re-prove it. ---
  if (pending_count() > 0) result->converged = false;
  const bool audit = cloud_->fault_injector() != nullptr ||
                     result->deferred > 0 || pending_count() > 0;
  for (size_t doc = 0; audit && doc < docs; ++doc) {
    if (acked_version[doc] == 0) continue;
    auto data = cloud_->GetBlob(blob_of(doc));
    if (!data.ok()) {
      result->converged = false;
      result->status = Status::IntegrityViolation(
          result->cell_id + ": acked doc" + std::to_string(doc) +
          " lost: " + data.status().ToString());
      return;
    }
    if (options_.verify_reads && !has_pending[doc] &&
        *data != acked_payload[doc]) {
      result->converged = false;
      result->status = Status::IntegrityViolation(
          result->cell_id + ": final state of doc" + std::to_string(doc) +
          " does not match the last acknowledged write");
      return;
    }
  }

  // --- Telemetry flush: ship until the hub acknowledged everything. The
  // gauges republish each attempt so the final frame carries the settled
  // state (healthy channel, empty outbox); once they stop changing the
  // delta empties and the loop exits on kNothing. ---
  for (size_t i = 0; telemetry.enabled() && i < options_.drain_attempts;
       ++i) {
    if (channel.degraded()) {
      channel.AdvanceVirtualTime(channel_options.breaker.open_cooldown_us);
    }
    publish_gauges();
    CellTelemetry::ShipResult shipped = telemetry.Ship(channel);
    if (shipped == CellTelemetry::ShipResult::kNothing) break;
    if (shipped == CellTelemetry::ShipResult::kFailed) {
      result->status = telemetry.last_error();
      return;
    }
  }
  telemetry.Finish(result);

  result->retries = channel.stats().retries;
  result->breaker_opens = channel.stats().breaker_opens;
}

void FleetRunner::RunCellTxn(size_t cell_index, FleetCellResult* result) {
  Rng rng(MixSeed(options_.seed ^ 0x74786e2d6d697865ULL, cell_index));
  result->cell_id = CellId(cell_index);

  const net::ChannelOptions channel_options = CellChannelOptions(cell_index);
  net::ResilientChannel channel(transport_, result->cell_id, channel_options);
  cloud::TxnHistorySink* history = options_.history;

  // Builds one read-modify-write attempt from a fresh snapshot and reports
  // it to the history sink. A transient failure leaves *req untouched and
  // returns that status (the caller waits the breaker out and rebuilds).
  auto build = [&](const std::vector<size_t>& keys, const std::string& token,
                   const std::string& attempt_id,
                   cloud::TxnRequest* req) -> Status {
    auto snap = channel.GetSnapshot();
    if (!snap.ok()) return snap.status();
    req->token = token;
    req->snapshot = std::move(*snap);
    req->reads.clear();
    req->writes.clear();
    for (size_t k : keys) {
      std::string id = SharedTxnKey(k);
      uint64_t version = 0;
      uint64_t value = 0;
      auto read = channel.GetAtSnapshot(id, req->snapshot);
      if (read.ok()) {
        version = read->version;
        auto decoded = DecodeCounter(read->data);
        if (!decoded.ok()) return decoded.status();
        value = *decoded;
      } else if (!read.status().IsNotFound()) {
        return read.status();
      }
      req->reads.push_back({id, version});
      req->writes.push_back({id, EncodeCounter(value + 1), version});
    }
    if (history != nullptr) {
      history->OnBegin(attempt_id, req->snapshot);
      for (const cloud::TxnRead& r : req->reads) {
        history->OnRead(attempt_id, r.id, r.version);
      }
    }
    return Status::OK();
  };

  enum class Fate { kCommitted, kAborted, kUnresolved, kFailed };
  auto send = [&](const cloud::TxnRequest& req,
                  const std::string& attempt_id) -> Fate {
    cloud::TxnOutcome outcome = channel.CommitTxn(req);
    if (outcome.committed) {
      if (history != nullptr) {
        std::vector<std::pair<std::string, uint64_t>> writes;
        writes.reserve(req.writes.size());
        for (size_t i = 0; i < req.writes.size(); ++i) {
          writes.emplace_back(req.writes[i].id, outcome.versions[i]);
        }
        history->OnCommit(attempt_id, outcome.commit_seq, writes);
      }
      ++result->txns_committed;
      return Fate::kCommitted;
    }
    if (outcome.status.IsAborted()) {
      if (history != nullptr) history->OnAbort(attempt_id);
      ++result->txn_aborts;
      return Fate::kAborted;
    }
    if (outcome.status.IsTransient() ||
        outcome.status.IsDeadlineExceeded()) {
      return Fate::kUnresolved;  // Re-send the IDENTICAL request later.
    }
    result->status = outcome.status;
    return Fate::kFailed;
  };

  auto wait_out_breaker = [&] {
    if (channel.degraded()) {
      channel.AdvanceVirtualTime(channel_options.breaker.open_cooldown_us);
    }
  };

  // One logical transaction's retry state. An abort rebuilds (fresh
  // snapshot, next attempt id, SAME token); an unresolved answer re-sends
  // the identical request; only a commit retires it.
  struct TxnState {
    std::vector<size_t> keys;
    std::string token;
    size_t round = 0;
    size_t attempt = 0;
    bool built = false;
    cloud::TxnRequest req;
    std::string attempt_id;
  };
  auto step = [&](TxnState& state) -> Fate {
    wait_out_breaker();
    if (!state.built) {
      state.attempt_id = result->cell_id + "/t" +
                         std::to_string(state.round) + "/a" +
                         std::to_string(state.attempt);
      Status built = build(state.keys, state.token, state.attempt_id,
                           &state.req);
      if (!built.ok()) {
        if (built.IsTransient() || built.IsDeadlineExceeded()) {
          return Fate::kUnresolved;  // Snapshot later, when reachable.
        }
        result->status = built;
        return Fate::kFailed;
      }
      state.built = true;
    }
    Fate fate = send(state.req, state.attempt_id);
    if (fate == Fate::kAborted) {
      ++state.attempt;
      state.built = false;
    }
    return fate;
  };

  // Transactions their round could not commit; the drain finishes them.
  std::vector<TxnState> carried;

  for (size_t round = 0; round < options_.rounds_per_cell; ++round) {
    TxnState state;
    state.round = round;
    // ONE token per logical transaction, across every rebuild and resend.
    state.token = result->cell_id + "/txn" + std::to_string(round);
    while (state.keys.size() < options_.txn_keys) {
      size_t k = rng.NextBelow(options_.txn_shared_docs);
      if (std::find(state.keys.begin(), state.keys.end(), k) ==
          state.keys.end()) {
        state.keys.push_back(k);
      }
    }
    std::sort(state.keys.begin(), state.keys.end());

    bool committed = false;
    for (size_t tries = 0; tries < options_.txn_retry_limit; ++tries) {
      Fate fate = step(state);
      if (fate == Fate::kFailed) return;
      if (fate == Fate::kCommitted) {
        committed = true;
        break;
      }
      // kAborted: step already queued a rebuild. kUnresolved: resend.
    }
    if (!committed) {
      carried.push_back(std::move(state));
      ++result->deferred;
    }
  }

  // --- Drain: every carried transaction runs to COMMIT. An identical
  // resend is answered from the token table if its commit had applied; a
  // definitive abort rebuilds and retries. Each abort implies some other
  // transaction committed meanwhile (first-committer-wins), so this
  // terminates — bounded hard by drain_attempts regardless. Drain legs are
  // background class: under overload the provider sheds them before any
  // cell's foreground commits. ---
  channel.set_criticality(Criticality::kBackground);
  size_t drain_tries = 0;
  while (!carried.empty() && drain_tries < options_.drain_attempts) {
    ++drain_tries;
    if (drain_tries == options_.drain_attempts / 2) {
      // Anti-starvation escalation: background sheds first by design, but
      // a drain that has burned half its budget on admission rejections is
      // being starved by its own fleet's foreground — promote the rest so
      // starvation stays bounded and every transaction still resolves.
      channel.set_criticality(Criticality::kNormal);
    }
    TxnState& state = carried.back();
    Fate fate = step(state);
    if (fate == Fate::kFailed) return;
    if (fate == Fate::kCommitted) {
      ++result->drained;
      carried.pop_back();
    }
  }
  if (!carried.empty()) {
    result->converged = false;
    result->status = Status::Unavailable(
        result->cell_id + ": " + std::to_string(carried.size()) +
        " transactions never committed after the drain");
    return;
  }
  result->retries = channel.stats().retries;
  result->breaker_opens = channel.stats().breaker_opens;
}

Result<FleetReport> FleetRunner::Run() {
  if (cloud_ == nullptr) {
    return Status::InvalidArgument("fleet: null cloud");
  }
  if (options_.cells == 0 || options_.rounds_per_cell == 0 ||
      options_.put_batch == 0 || options_.docs_per_cell == 0) {
    return Status::InvalidArgument("fleet: empty workload");
  }
  if (options_.put_batch > options_.docs_per_cell) {
    return Status::InvalidArgument(
        "fleet: put_batch must not exceed docs_per_cell");
  }
  if (options_.outage_first_rounds > options_.rounds_per_cell) {
    return Status::InvalidArgument(
        "fleet: outage_first_rounds must not exceed rounds_per_cell "
        "(the outage heals when the last cell passes them)");
  }
  if (options_.txn_workload) {
    if (options_.txn_keys == 0 ||
        options_.txn_keys > options_.txn_shared_docs) {
      return Status::InvalidArgument(
          "fleet: txn_keys must be in [1, txn_shared_docs]");
    }
    if (options_.outage_first_rounds > 0) {
      return Status::InvalidArgument(
          "fleet: the forced-outage phase drives the blob workload, not "
          "the txn workload");
    }
  }
  if (options_.outage_first_rounds > 0 &&
      cloud_->fault_injector() == nullptr) {
    return Status::InvalidArgument(
        "fleet: a forced outage needs an attached fault injector");
  }
  if (options_.outage_first_rounds > 0 && options_.cells > options_.threads) {
    // The heal fires when the LAST cell passes its outage rounds, so every
    // cell must hold a worker: a queued cell would starve behind drained
    // cells waiting for the heal.
    return Status::InvalidArgument(
        "fleet: a forced outage needs cells <= threads");
  }
  if (options_.outage_first_rounds > 0) {
    cloud_->fault_injector()->ForceOutage(true);
  }

  obs::TraceSpan run_span("fleet", "run",
                          std::to_string(options_.cells) + " cells");
  const uint64_t blob_contention_before = cloud_->blob_lock_contention();
  const uint64_t queue_contention_before = cloud_->queue_lock_contention();
  const obs::HistogramSnapshot put_before = put_batch_us_.Snapshot();
  const obs::HistogramSnapshot get_before = get_us_.Snapshot();

  FleetReport report;
  report.cells.resize(options_.cells);

  WorkerPool::Options pool_options;
  pool_options.threads = options_.threads;
  pool_options.queue_capacity = options_.queue_capacity;
  WorkerPool pool(pool_options);

  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < options_.cells; ++i) {
    bool accepted = pool.Submit([this, i, &report] {
      if (options_.txn_workload) {
        RunCellTxn(i, &report.cells[i]);
      } else {
        RunCell(i, &report.cells[i]);
      }
    });
    if (!accepted) {
      // A racing shutdown dropped the task: the cell must not read as "ran
      // fine with zero ops" — record the rejection as this cell's outcome.
      report.cells[i].cell_id = CellId(i);
      report.cells[i].status = Status::Unavailable(
          report.cells[i].cell_id +
          ": worker pool rejected the task (shutting down)");
    }
  }
  pool.Wait();
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  pool.Shutdown();
  // A task that threw bypassed RunCell's per-cell status capture entirely;
  // surface it as a run-level failure rather than report corrupt totals.
  TC_RETURN_IF_ERROR(pool.first_error());

  for (size_t i = 0; i < options_.cells; ++i) {
    const FleetCellResult& cell = report.cells[i];
    if (cell.status.ok()) {
      ++report.cells_ok;
    } else {
      ++report.cells_failed;
    }
    report.puts += cell.puts;
    report.gets += cell.gets;
    report.sends += cell.sends;
    report.messages_received += cell.messages_received;
    report.retries += cell.retries;
    report.deferred += cell.deferred;
    report.drained += cell.drained;
    report.gets_unavailable += cell.gets_unavailable;
    report.breaker_opens += cell.breaker_opens;
    report.txns_committed += cell.txns_committed;
    report.txn_aborts += cell.txn_aborts;
    report.telemetry_frames += cell.telemetry_frames;
    report.telemetry_unshipped += cell.telemetry_unshipped;
    if (cell.converged && cell.status.ok()) {
      ++report.cells_converged;
    } else {
      report.converged = false;
    }
  }
  // Commit-exactness audit (ground truth, below the edge): every commit
  // advanced each of its keys' counters by exactly 1 at exactly the next
  // version, so per key counter == version, and summed over keys the
  // version total equals commits * keys-per-txn. A duplicate application
  // (token table failure) or a lost commit breaks one of the equalities.
  if (options_.txn_workload && report.cells_failed == 0) {
    uint64_t version_total = 0;
    for (size_t k = 0; k < options_.txn_shared_docs; ++k) {
      const std::string id = SharedTxnKey(k);
      auto latest = cloud_->LatestBlobVersion(id);
      if (!latest.ok()) continue;  // Never written: contributes 0.
      version_total += *latest;
      auto blob = cloud_->GetBlob(id);
      auto counter = blob.ok() ? DecodeCounter(*blob)
                               : Result<uint64_t>(blob.status());
      if (!counter.ok() || *counter != *latest) {
        report.converged = false;
        return Status::IntegrityViolation(
            "txn audit: " + id + " counter " +
            (counter.ok() ? std::to_string(*counter) : "unreadable") +
            " != version " + std::to_string(*latest));
      }
    }
    const uint64_t expected = report.txns_committed * options_.txn_keys;
    if (version_total != expected) {
      report.converged = false;
      return Status::IntegrityViolation(
          "txn audit: " + std::to_string(version_total) +
          " versions created across shared keys, but " +
          std::to_string(report.txns_committed) + " commits x " +
          std::to_string(options_.txn_keys) + " keys = " +
          std::to_string(expected));
    }
  }

  const uint64_t healed_at = healed_at_us_.load(std::memory_order_acquire);
  if (healed_at != 0) {
    const uint64_t now_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    report.heal_to_converge_seconds =
        static_cast<double>(now_us - healed_at) / 1e6;
  }
  report.put_latency = ExtractLatency(put_batch_us_.Snapshot(), put_before);
  report.get_latency = ExtractLatency(get_us_.Snapshot(), get_before);
  if (report.wall_seconds > 0) {
    report.put_get_per_second =
        static_cast<double>(report.puts + report.gets) / report.wall_seconds;
  }
  report.blob_lock_contention =
      cloud_->blob_lock_contention() - blob_contention_before;
  report.queue_lock_contention =
      cloud_->queue_lock_contention() - queue_contention_before;
  return report;
}

}  // namespace tc::fleet
