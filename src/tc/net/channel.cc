#include "tc/net/channel.h"

#include <utility>

#include "tc/obs/flight_recorder.h"

namespace tc::net {
namespace {

// How one attempt's reply ends its op (the judge's answer).
enum class Verdict {
  kOk,       ///< Success: counted ok; closes the breaker, refills budget.
  kAnswer,   ///< Definitive non-failure answer (a txn abort): proves the
             ///< provider alive like kOk, but is not counted ok.
  kByStatus  ///< The reply's status decides: transient → retry,
             ///< kDeadlineExceeded → give-up, anything else → answer.
};

template <typename T>
Status StatusOf(const Result<T>& reply) {
  return reply.status();
}
template <typename Reply>
const Status& StatusOf(const Reply& reply) {
  return reply.status;
}

// Judge of every op whose success is an OK reply.
constexpr auto kOkReply = [](const auto& reply) {
  return StatusOf(reply).ok() ? Verdict::kOk : Verdict::kByStatus;
};

// The reply of an op the channel ends itself (open breaker, dry retry
// budget, exhausted deadline).
template <typename T>
Result<T> FailedReply(Result<T>*, Status status) {
  return status;
}
template <typename Reply>
Reply FailedReply(Reply*, Status status) {
  Reply reply;
  reply.status = std::move(status);
  return reply;
}

}  // namespace

ResilientChannel::Metrics::Metrics()
    : retries(obs::MetricRegistry::Global().GetCounter("cloud.retries")),
      breaker_opens(
          obs::MetricRegistry::Global().GetCounter("net.breaker_opens")),
      deadline_exceeded(
          obs::MetricRegistry::Global().GetCounter("net.deadline_exceeded")),
      retry_budget_denied(obs::MetricRegistry::Global().GetCounter(
          "net.retry_budget_denied")),
      pushbacks(obs::MetricRegistry::Global().GetCounter("net.pushbacks")) {}

ResilientChannel::ResilientChannel(cloud::CloudInfrastructure* cloud,
                                   std::string peer_id,
                                   const ChannelOptions& options)
    : cloud_(cloud),
      owned_transport_(std::make_unique<InProcessTransport>(cloud)),
      transport_(owned_transport_.get()),
      peer_(std::move(peer_id)),
      options_(options),
      backoff_(options.backoff, options.seed),
      breaker_(options.breaker),
      retry_budget_(options.retry_budget) {}

ResilientChannel::ResilientChannel(CloudTransport* transport,
                                   std::string peer_id,
                                   const ChannelOptions& options)
    : cloud_(nullptr),
      transport_(transport),
      peer_(std::move(peer_id)),
      options_(options),
      backoff_(options.backoff, options.seed),
      breaker_(options.breaker),
      retry_budget_(options.retry_budget) {}

std::string ResilientChannel::MintToken() {
  return peer_ + "/op" + std::to_string(next_token_seq_++);
}

OverloadContext ResilientChannel::AttemptContext(
    const DeadlineBudget& budget) const {
  OverloadContext ctx;
  ctx.criticality = options_.criticality;
  if (options_.propagate_deadline) ctx.budget_us = budget.remaining_us();
  return ctx;
}

bool ResilientChannel::AllowRetry(uint32_t hint_us, const char* what,
                                  uint64_t* delay_us, Status* denied) {
  if (hint_us != 0) {
    ++stats_.pushbacks;
    metrics_.pushbacks.Increment();
  }
  if (!retry_budget_.TryRetry()) {
    ++stats_.retry_budget_denied;
    metrics_.retry_budget_denied.Increment();
    // A denied retry ends the op exactly like an exhausted deadline
    // budget: the channel is done retrying a transient failure. Keeping
    // the one canonical give-up status (kDeadlineExceeded) preserves the
    // degraded-mode contract up the stack; kResourceExhausted stays
    // reserved for the SERVER's admission pushback.
    *denied = Status::DeadlineExceeded(
        std::string(what) + " to " + peer_ +
        "'s provider: retry budget exhausted (amplification capped)");
    return false;
  }
  uint64_t delay = backoff_.NextDelayUs();
  // Honor the server's retry-after: never come back sooner than it asked.
  if (hint_us > delay) delay = hint_us;
  *delay_us = delay;
  return true;
}

void ResilientChannel::RecordOpFailure(const Status& status,
                                       const std::string& what) {
  ++stats_.ops_failed;
  const bool was_open = breaker_.open();
  breaker_.RecordFailure(virtual_now_us_);
  if (!was_open && breaker_.open()) {
    ++stats_.breaker_opens;
    metrics_.breaker_opens.Increment();
  }
  if (status.IsDeadlineExceeded()) {
    ++stats_.deadline_exceeded;
    metrics_.deadline_exceeded.Increment();
    if (!was_open && breaker_.open()) {
      // The channel just gave up on the provider entirely: deadline burnt
      // AND the circuit flipped open. Capture the moment (the active trace
      // context ties the dump to the cell operation that was abandoned).
      ++stats_.give_ups;
      obs::FlightRecorder::Global().Trigger(
          "net:sync_giveup",
          peer_ + " " + what + ": " + status.ToString() + " after " +
              std::to_string(virtual_now_us_) + "us virtual");
    }
  }
}

// The one attempt loop. Every op runs it with its own attempt call and
// judge; the loop owns everything else, in this order per attempt:
// breaker admit (once per op) → attempt under the op's OverloadContext →
// retry-after hint → virtual-clock and deadline charge → judge → give-up
// rule → retry budget → backoff (the jitter draw) → deadline check.
template <typename Reply, typename Attempt, typename Judge>
Reply ResilientChannel::Call(const char* what, Attempt&& attempt,
                             Judge&& judge) {
  if (!breaker_.AllowRequest(virtual_now_us_)) {
    ++stats_.breaker_rejections;
    return FailedReply(static_cast<Reply*>(nullptr),
                       Status::Unavailable("circuit open to " + peer_ +
                                           "'s provider (degraded mode)"));
  }
  DeadlineBudget budget(options_.op_deadline_us);
  backoff_.Reset();
  for (bool first = true;; first = false) {
    ++stats_.attempts;
    if (!first) {
      ++stats_.retries;
      metrics_.retries.Increment();
    }
    uint32_t delay_us = 0;
    Reply reply = [&] {
      ScopedOverloadContext attempt_scope(AttemptContext(budget));
      return attempt(&delay_us);
    }();
    const uint32_t hint_us = TakeRetryAfterHint();
    const uint64_t charged = options_.attempt_cost_us + delay_us;
    virtual_now_us_ += charged;
    bool in_budget = budget.Charge(charged);

    const Verdict verdict = judge(reply);
    if (verdict != Verdict::kByStatus) {
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      if (verdict == Verdict::kOk) ++stats_.ops_ok;
      return reply;
    }
    const Status status = StatusOf(reply);
    if (status.IsDeadlineExceeded()) {
      // A timed-out attempt is a give-up on every op: the provider did not
      // answer within the time the transport allows.
      RecordOpFailure(status, what);
      return reply;
    }
    if (!status.IsTransient()) {
      // kNotFound, kIntegrityViolation, kInvalidArgument, a rejected
      // frame, ... are answers, not network failures: they never charge
      // the breaker.
      ++stats_.ops_failed;
      return reply;
    }
    uint64_t delay = 0;
    Status denied;
    if (!AllowRetry(hint_us, what, &delay, &denied)) {
      RecordOpFailure(denied, what);
      return FailedReply(static_cast<Reply*>(nullptr), std::move(denied));
    }
    virtual_now_us_ += delay;
    in_budget = budget.Charge(delay) && in_budget;
    if (!in_budget) {
      Status deadline = Status::DeadlineExceeded(
          std::string(what) + " to " + peer_ +
          "'s provider: unresolved after " +
          std::to_string(budget.spent_us()) + "us (last: " +
          status.ToString() + ")");
      RecordOpFailure(deadline, what);
      return FailedReply(static_cast<Reply*>(nullptr), std::move(deadline));
    }
  }
}

ResilientChannel::PutBatchResult ResilientChannel::PutBatch(
    const std::vector<std::pair<std::string, Bytes>>& items,
    std::vector<std::string> tokens) {
  PutBatchResult result;
  result.versions.assign(items.size(), 0);
  result.acked.assign(items.size(), 0);
  if (items.empty()) return result;
  if (tokens.empty()) {
    tokens.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) tokens.push_back(MintToken());
  }
  if (tokens.size() != items.size()) {
    result.status =
        Status::InvalidArgument("channel put: one token per item required");
    return result;
  }

  // The first attempt sends the caller's vectors untouched; a retry sends
  // the still-unacked subset, whose acks map back through sub_index.
  size_t unacked = items.size();
  std::vector<std::pair<std::string, Bytes>> sub_items;
  std::vector<std::string> sub_tokens;
  std::vector<size_t> sub_index;
  BatchPutOutcome last = Call<BatchPutOutcome>(
      "put_batch",
      [&](uint32_t* delay_us) {
        const bool first = ++result.attempts == 1;
        if (!first) {
          sub_items.clear();
          sub_tokens.clear();
          sub_index.clear();
          for (size_t i = 0; i < items.size(); ++i) {
            if (result.acked[i]) continue;
            sub_items.push_back(items[i]);
            sub_tokens.push_back(tokens[i]);
            sub_index.push_back(i);
          }
        }
        BatchPutOutcome outcome =
            first ? transport_->PutBlobBatch(items, tokens)
                  : transport_->PutBlobBatch(sub_items, sub_tokens);
        *delay_us = outcome.delay_us;
        return outcome;
      },
      [&](const BatchPutOutcome& outcome) {
        for (size_t j = 0; j < outcome.acked.size(); ++j) {
          if (!outcome.acked[j]) continue;
          const size_t i = result.attempts == 1 ? j : sub_index[j];
          if (!result.acked[i]) {
            result.acked[i] = 1;
            result.versions[i] = outcome.versions[j];
            --unacked;
          }
        }
        return unacked == 0 ? Verdict::kOk : Verdict::kByStatus;
      });
  if (unacked != 0) result.status = std::move(last.status);
  return result;
}

Result<uint64_t> ResilientChannel::Put(const std::string& id,
                                       const Bytes& data,
                                       const std::string* token) {
  std::vector<std::pair<std::string, Bytes>> items;
  items.emplace_back(id, data);
  std::vector<std::string> tokens;
  if (token != nullptr) tokens.push_back(*token);
  PutBatchResult result = PutBatch(items, std::move(tokens));
  if (!result.status.ok()) return result.status;
  return result.versions[0];
}

Result<Bytes> ResilientChannel::Get(const std::string& id) {
  return Call<Result<Bytes>>(
      "get",
      [&](uint32_t* delay_us) { return transport_->GetBlob(id, delay_us); },
      kOkReply);
}

Result<cloud::SnapshotDescriptor> ResilientChannel::GetSnapshot() {
  return Call<Result<cloud::SnapshotDescriptor>>(
      "snapshot",
      [&](uint32_t* delay_us) { return transport_->GetSnapshot(delay_us); },
      kOkReply);
}

Result<cloud::SnapshotRead> ResilientChannel::GetAtSnapshot(
    const std::string& id, const cloud::SnapshotDescriptor& snap) {
  return Call<Result<cloud::SnapshotRead>>(
      "snapshot_get",
      [&](uint32_t* delay_us) {
        return transport_->GetAtSnapshot(id, snap, delay_us);
      },
      kOkReply);
}

cloud::TxnOutcome ResilientChannel::CommitTxn(const cloud::TxnRequest& req) {
  return Call<cloud::TxnOutcome>(
      "txn_commit",
      [&](uint32_t* delay_us) {
        cloud::TxnOutcome outcome = transport_->CommitTxn(req);
        *delay_us = outcome.delay_us;
        return outcome;
      },
      [&](const cloud::TxnOutcome& outcome) {
        if (outcome.committed) {
          ++stats_.txns_committed;
          return Verdict::kOk;
        }
        if (outcome.status.IsAborted()) {
          // A definitive provider answer, not a network failure: the
          // caller refreshes its snapshot and rebuilds under the same token.
          ++stats_.txns_aborted;
          return Verdict::kAnswer;
        }
        return Verdict::kByStatus;
      });
}

obs::TelemetryHub::ReportOutcome ResilientChannel::ReportTelemetry(
    const Bytes& frame) {
  return Call<obs::TelemetryHub::ReportOutcome>(
      "telemetry",
      [&](uint32_t* delay_us) {
        return transport_->ReportTelemetry(frame, delay_us);
      },
      kOkReply);
}

}  // namespace tc::net
