#include "tc/cell/cell.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "tc/cloud/txn.h"
#include "tc/common/codec.h"
#include "tc/crypto/sha256.h"
#include "tc/obs/flight_recorder.h"
#include "tc/obs/telemetry.h"
#include "tc/obs/trace.h"

namespace tc::cell {
namespace {

/// Short hex tag of a digest, for tokens bound to the bytes they carry.
std::string ContentTag(const Bytes& digest) {
  return HexEncode(Bytes(digest.begin(), digest.begin() + 8));
}

/// Serialized DocumentMeta (+ its keyword-index number).
Bytes EncodeMeta(const DocumentMeta& meta, uint64_t number) {
  BinaryWriter w;
  w.PutU64(number);
  w.PutString(meta.doc_id);
  w.PutString(meta.title);
  w.PutString(meta.keywords);
  w.PutString(meta.origin_owner);
  w.PutString(meta.origin_cell);
  w.PutU64(meta.version);
  w.PutU64(meta.size);
  w.PutI64(meta.created);
  w.PutBytes(meta.policy_envelope);
  w.PutString(meta.blob_id);
  w.PutString(meta.key_name);
  w.PutBool(meta.pending_approval);
  return w.Take();
}

Result<std::pair<DocumentMeta, uint64_t>> DecodeMeta(const Bytes& data) {
  BinaryReader r(data);
  DocumentMeta meta;
  TC_ASSIGN_OR_RETURN(uint64_t number, r.GetU64());
  TC_ASSIGN_OR_RETURN(meta.doc_id, r.GetString());
  TC_ASSIGN_OR_RETURN(meta.title, r.GetString());
  TC_ASSIGN_OR_RETURN(meta.keywords, r.GetString());
  TC_ASSIGN_OR_RETURN(meta.origin_owner, r.GetString());
  TC_ASSIGN_OR_RETURN(meta.origin_cell, r.GetString());
  TC_ASSIGN_OR_RETURN(meta.version, r.GetU64());
  TC_ASSIGN_OR_RETURN(uint64_t size, r.GetU64());
  meta.size = size;
  TC_ASSIGN_OR_RETURN(meta.created, r.GetI64());
  TC_ASSIGN_OR_RETURN(meta.policy_envelope, r.GetBytes());
  TC_ASSIGN_OR_RETURN(meta.blob_id, r.GetString());
  TC_ASSIGN_OR_RETURN(meta.key_name, r.GetString());
  TC_ASSIGN_OR_RETURN(meta.pending_approval, r.GetBool());
  return std::make_pair(std::move(meta), number);
}

std::string MetaKey(const std::string& doc_id) { return "x/doc/" + doc_id; }

storage::FlashGeometry DefaultGeometry(const tee::DeviceProfile& profile) {
  storage::FlashGeometry geo;
  geo.page_size = 2048;
  geo.pages_per_block = 64;
  switch (profile.device_class) {
    case tee::DeviceClass::kSecureToken:
      geo.block_count = 128;  // 16 MiB.
      break;
    case tee::DeviceClass::kSensorNode:
      geo.block_count = 64;   // 8 MiB.
      break;
    case tee::DeviceClass::kSmartPhone:
      geo.block_count = 512;  // 64 MiB.
      break;
    case tee::DeviceClass::kHomeGateway:
      geo.block_count = 2048;  // 256 MiB.
      break;
  }
  geo.read_page_us = profile.flash_read_page_us;
  geo.program_page_us = profile.flash_program_page_us;
  geo.erase_block_us = profile.flash_erase_block_us;
  return geo;
}

}  // namespace

// ----------------------------------------------------------- ShareGrant

Bytes ShareGrant::SignedPayload() const {
  BinaryWriter w;
  w.PutString("tc.grant.v1");
  w.PutString(grant_id);
  w.PutString(doc_id);
  w.PutString(blob_id);
  w.PutString(origin_owner);
  w.PutU64(version);
  w.PutString(title);
  w.PutString(keywords);
  w.PutString(sender_cell);
  w.PutString(recipient_cell);
  w.PutBytes(policy_envelope);
  w.PutBytes(wrapped_key);
  return w.Take();
}

Bytes ShareGrant::Serialize() const {
  BinaryWriter w;
  w.PutBytes(SignedPayload());
  w.PutBytes(signature.Serialize(32));
  return w.Take();
}

Result<ShareGrant> ShareGrant::Deserialize(const Bytes& data) {
  BinaryReader outer(data);
  TC_ASSIGN_OR_RETURN(Bytes payload, outer.GetBytes());
  TC_ASSIGN_OR_RETURN(Bytes sig_bytes, outer.GetBytes());

  BinaryReader r(payload);
  ShareGrant grant;
  TC_ASSIGN_OR_RETURN(std::string magic, r.GetString());
  if (magic != "tc.grant.v1") return Status::Corruption("bad grant magic");
  TC_ASSIGN_OR_RETURN(grant.grant_id, r.GetString());
  TC_ASSIGN_OR_RETURN(grant.doc_id, r.GetString());
  TC_ASSIGN_OR_RETURN(grant.blob_id, r.GetString());
  TC_ASSIGN_OR_RETURN(grant.origin_owner, r.GetString());
  TC_ASSIGN_OR_RETURN(grant.version, r.GetU64());
  TC_ASSIGN_OR_RETURN(grant.title, r.GetString());
  TC_ASSIGN_OR_RETURN(grant.keywords, r.GetString());
  TC_ASSIGN_OR_RETURN(grant.sender_cell, r.GetString());
  TC_ASSIGN_OR_RETURN(grant.recipient_cell, r.GetString());
  TC_ASSIGN_OR_RETURN(grant.policy_envelope, r.GetBytes());
  TC_ASSIGN_OR_RETURN(grant.wrapped_key, r.GetBytes());
  TC_ASSIGN_OR_RETURN(grant.signature,
                      crypto::SchnorrSignature::Deserialize(sig_bytes));
  return grant;
}

// ---------------------------------------------------------- TrustedCell

policy::Policy MakeOwnerPolicy(const std::string& owner) {
  policy::UsageRule rule;
  rule.id = "owner-all";
  rule.subjects = {owner};
  rule.rights = {policy::Right::kRead, policy::Right::kWrite,
                 policy::Right::kShare, policy::Right::kAggregate,
                 policy::Right::kExport};
  rule.obligations = {policy::ObligationType::kLogAccess};
  policy::Policy p;
  p.id = "owner-default";
  p.owner = owner;
  p.rules = {rule};
  return p;
}

TrustedCell::Metrics::Metrics()
    : seal_us(obs::MetricRegistry::Global().GetHistogram("cell.seal_us")),
      unseal_us(obs::MetricRegistry::Global().GetHistogram("cell.unseal_us")),
      reads_allowed(obs::MetricRegistry::Global().GetCounter(
          "cell.policy.reads_allowed")),
      reads_denied(obs::MetricRegistry::Global().GetCounter(
          "cell.policy.reads_denied")),
      incidents(obs::MetricRegistry::Global().GetCounter("cell.incidents")),
      degraded_ms(
          obs::MetricRegistry::Global().GetCounter("cell.degraded_ms")),
      degraded(
          obs::MetricRegistry::Global().GetGauge(obs::kDegradedGaugeName)),
      outbox_depth(obs::MetricRegistry::Global().GetGauge(
          obs::kOutboxDepthGaugeName)) {}

TrustedCell::TrustedCell(const Config& config,
                         cloud::CloudInfrastructure* cloud,
                         CellDirectory* directory, const Clock* clock)
    : config_(config), cloud_(cloud), directory_(directory), clock_(clock) {}

Result<std::unique_ptr<TrustedCell>> TrustedCell::Create(
    const Config& config, cloud::CloudInfrastructure* cloud,
    CellDirectory* directory, const Clock* clock) {
  if (config.cell_id.empty() || config.owner.empty()) {
    return Status::InvalidArgument("cell needs an id and an owner");
  }
  std::unique_ptr<TrustedCell> cell(
      new TrustedCell(config, cloud, directory, clock));
  TC_RETURN_IF_ERROR(cell->Init());
  return cell;
}

Status TrustedCell::Init() {
  tee_ = std::make_unique<tee::TrustedExecutionEnvironment>(
      config_.cell_id, config_.device_class, config_.group_bits);

  // Owner master key: identical on every cell of the owner (models the
  // user enrolling each device with her passphrase-derived secret).
  Bytes owner_secret = crypto::Sha256Hash(ToBytes(
      "tc.owner-secret." + config_.owner + "|" + config_.enrollment_secret));
  TC_RETURN_IF_ERROR(tee_->keystore().ImportKey("owner-master", owner_secret));
  TC_RETURN_IF_ERROR(tee_->keystore().DeriveChildKey(
      "owner-master", "storage-root", "storage/" + config_.cell_id));
  TC_RETURN_IF_ERROR(tee_->keystore().DeriveChildKey(
      "owner-master", "manifest-key", "manifest"));
  TC_RETURN_IF_ERROR(tee_->keystore().DeriveChildKey(
      "owner-master", "audit-key", "audit/" + config_.cell_id));

  // The audit journal must exist before the store opens: recovery can
  // raise incidents, and every incident is journaled evidence.
  audit_ = std::make_unique<policy::AuditLog>(tee_.get(), "audit-key");
  {
    obs::AuditRecord boot;
    boot.time = clock_->Now();
    boot.kind = obs::AuditKind::kAttestation;
    boot.subject = config_.cell_id;
    boot.action = "init";
    boot.object = config_.cell_id;
    boot.allowed = true;
    boot.detail =
        "boot_counter=" + std::to_string(tee_->CounterValue("boot"));
    TC_RETURN_IF_ERROR(audit_->journal().Append(std::move(boot)));
  }

  const tee::DeviceProfile& profile = tee_->profile();
  storage::FlashGeometry geo =
      config_.use_default_flash ? DefaultGeometry(profile) : config_.flash;
  flash_ = std::make_unique<storage::FlashDevice>(geo);
  transform_ = std::make_unique<storage::EncryptedPageTransform>(
      tee_.get(), "storage-root");
  storage::LogStoreOptions store_options;
  store_options.ram_budget_bytes = profile.ram_budget_bytes;
  // Survive a power loss mid-program (at most one torn page, plus the
  // residue of an interrupted GC erase) without bricking the cell, while a
  // wholesale undecodable image — wrong key, gross tampering — still
  // refuses to open.
  store_options.max_recovery_skips = geo.pages_per_block;
  TC_ASSIGN_OR_RETURN(store_,
                      storage::LogStore::Open(flash_.get(), transform_.get(),
                                              store_options));
  if (store_->stats().recovery_pages_skipped > 0) {
    obs::AuditRecord skip;
    skip.time = clock_->Now();
    skip.kind = obs::AuditKind::kRecoverySkip;
    skip.subject = config_.cell_id;
    skip.action = "recover";
    skip.object = "flash";
    skip.allowed = true;  // Tolerated by max_recovery_skips.
    skip.detail = std::to_string(store_->stats().recovery_pages_skipped) +
                  " pages skipped";
    TC_RETURN_IF_ERROR(audit_->journal().Append(std::move(skip)));
    RecordIncident(
        IncidentType::kStorageDataLoss, "flash",
        std::to_string(store_->stats().recovery_pages_skipped) +
            " undecodable flash pages skipped during store recovery");
  }
  TC_ASSIGN_OR_RETURN(db_, db::Database::Open(store_.get()));

  // Every provider call crosses the channel: over the configured transport
  // (e.g. a socket to a provider in another process), else in-process.
  net::ChannelOptions channel_options = config_.channel;
  if (channel_options.seed == net::ChannelOptions{}.seed) {
    // Per-cell jitter stream by default, so a fleet of cells does not
    // retry in lockstep.
    BinaryWriter sw;
    sw.PutString("tc.net-seed." + config_.cell_id);
    Bytes digest = crypto::Sha256Hash(sw.Take());
    uint64_t seed = 0;
    for (int i = 0; i < 8; ++i) seed = (seed << 8) | digest[i];
    channel_options.seed = seed;
  }
  if (!config_.resilient_sync) {
    // An open circuit exists to put the cell in degraded local-only mode;
    // without an outbox there is no such mode, so the breaker never
    // latches and every call probes the provider and reports its own
    // failure.
    channel_options.breaker.failure_threshold =
        std::numeric_limits<uint32_t>::max();
  }
  if (config_.transport != nullptr) {
    channel_ = std::make_unique<net::ResilientChannel>(
        config_.transport, config_.owner, channel_options);
  } else {
    channel_ = std::make_unique<net::ResilientChannel>(cloud_, config_.owner,
                                                       channel_options);
  }
  if (config_.resilient_sync) {
    outbox_ = std::make_unique<net::Outbox>(store_.get());
    TC_RETURN_IF_ERROR(outbox_->Load());
    if (!outbox_->empty()) {
      // Crashed (or was shut down) while partitioned: the queued pushes
      // survived in the encrypted store. Resume degraded until CatchUp.
      EnterDegraded();
    }
  }

  // Rebuild the document registry.
  Status scan_status;
  TC_RETURN_IF_ERROR(store_->ScanAll([&](const std::string& key,
                                         const Bytes& value) {
    if (!scan_status.ok() || key.compare(0, 6, "x/doc/") != 0) return;
    auto decoded = DecodeMeta(value);
    if (!decoded.ok()) {
      scan_status = decoded.status();
      return;
    }
    doc_numbers_[decoded->first.doc_id] = decoded->second;
    number_to_doc_[decoded->second] = decoded->first.doc_id;
    next_doc_number_ = std::max(next_doc_number_, decoded->second + 1);
  }));
  TC_RETURN_IF_ERROR(scan_status);

  Status registered = directory_->Register(
      CellIdentity{config_.cell_id, config_.owner, tee_->signing_public_key(),
                   tee_->dh_public_key()});
  if (!registered.ok() && registered.code() != StatusCode::kAlreadyExists) {
    return registered;
  }
  return Status::OK();
}

std::string TrustedCell::SpaceBlobId(const std::string& doc_id) const {
  return "space/" + config_.owner + "/doc/" + doc_id;
}

std::string TrustedCell::ManifestBlobId() const {
  return "space/" + config_.owner + "/manifest";
}

// ---- Disconnected operation ----

std::string TrustedCell::PushToken(const std::string& blob_id,
                                   uint64_t version) const {
  return config_.cell_id + "|" + blob_id + "|v" + std::to_string(version);
}

void TrustedCell::EnterDegraded() {
  if (degraded_) return;
  degraded_ = true;
  // +1/-1, not Set: the gauge is process-global, so with several cells in
  // one process it counts the currently-degraded ones.
  metrics_.degraded.Add(1);
  degraded_timer_ = obs::Stopwatch();
}

void TrustedCell::ExitDegraded() {
  if (!degraded_) return;
  degraded_ = false;
  metrics_.degraded.Add(-1);
  metrics_.degraded_ms.Increment(degraded_timer_.ElapsedUs() / 1000);
}

Status TrustedCell::PushBlob(const std::string& blob_id, uint64_t version,
                             const Bytes& sealed) {
  std::string token = PushToken(blob_id, version);
  if (outbox_ == nullptr) {
    // No outbox to defer to, so nothing re-sends this push once the call
    // returns — but a failed push leaves its version unused and the next
    // call reuses it. Bind the token to the bytes: a push that applied
    // with its ack lost must not answer the next call's new content.
    token += "|" + ContentTag(crypto::Sha256Hash(sealed));
    return channel_->Put(blob_id, sealed, &token).status();
  }
  // A queued older push of the same blob must never overtake this one:
  // supersede it in the outbox instead of racing it to the provider.
  if (outbox_->FindByBlobId(blob_id) == nullptr) {
    auto pushed = channel_->Put(blob_id, sealed, &token);
    if (pushed.ok()) return Status::OK();
    if (!pushed.status().IsTransient() &&
        !pushed.status().IsDeadlineExceeded()) {
      return pushed.status();
    }
  }
  // Provider unreachable (or an older push is queued): the sealed bytes
  // are journaled in the encrypted store and the write succeeds locally.
  // Note the push may have reached the provider with only the ack lost —
  // draining re-sends under the same token, so it applies at most once.
  TC_RETURN_IF_ERROR(outbox_->Enqueue(blob_id, token, sealed));
  metrics_.outbox_depth.Add(1);
  ++stats_.pushes_deferred;
  EnterDegraded();
  return Status::OK();
}

Result<Bytes> TrustedCell::PullBlob(const std::string& blob_id) {
  if (outbox_ != nullptr) {
    // Read-your-writes while partitioned; a pending transaction's write of
    // this blob is served through the out-param (the txn record's own
    // payload field is empty).
    const Bytes* queued_payload = nullptr;
    if (outbox_->FindByBlobId(blob_id, &queued_payload) != nullptr) {
      return *queued_payload;
    }
  }
  return channel_->Get(blob_id);
}

Status TrustedCell::CatchUp() {
  if (outbox_ == nullptr || outbox_->empty()) {
    ExitDegraded();
    return Status::OK();
  }
  obs::TraceSpan span("cell", "catch_up", config_.cell_id);
  // Catch-up is anti-entropy traffic: tag the channel kBackground for the
  // duration so an overloaded provider sheds this drain before any cell's
  // foreground puts/commits. Restored on every exit path.
  struct CriticalityGuard {
    net::ResilientChannel* ch;
    Criticality prev;
    ~CriticalityGuard() { ch->set_criticality(prev); }
  } criticality_guard{channel_.get(), channel_->criticality()};
  channel_->set_criticality(Criticality::kBackground);
  uint64_t drained = 0;
  while (!outbox_->empty()) {
    if (channel_->degraded()) {
      // Wait out the breaker cooldown on the virtual clock — catch-up is
      // the reconnection attempt, it must be allowed to probe.
      channel_->AdvanceVirtualTime(config_.channel.breaker.open_cooldown_us);
    }
    const net::OutboxRecord& record = outbox_->pending().begin()->second;
    if (record.is_txn) {
      // A journaled whole-transaction drains through CommitTxn under its
      // original token: blind last-writer-wins writes (the partition aged
      // the read set past any meaningful validation), answered from the
      // provider's token table if the pre-crash commit already applied —
      // either way all writes land atomically, exactly once.
      cloud::TxnRequest req;
      req.token = record.token;
      for (const net::OutboxTxnWrite& write : record.txn_writes) {
        req.writes.push_back(
            {write.blob_id, write.payload, cloud::kBaseVersionAny});
      }
      cloud::TxnOutcome outcome = channel_->CommitTxn(req);
      if (!outcome.committed) {
        if (outcome.status.IsTransient() ||
            outcome.status.IsDeadlineExceeded()) {
          stats_.catchup_drained += drained;
          return Status::Unavailable(
              "catch-up stalled with " + std::to_string(outbox_->size()) +
              " pushes pending: " + outcome.status.ToString());
        }
        return outcome.status;  // Blind writes never abort; a real error.
      }
      if (outcome.versions.size() != record.txn_writes.size()) {
        return Status::Internal("txn outcome/write-set size mismatch");
      }
      for (size_t i = 0; i < record.txn_writes.size(); ++i) {
        auto echo = cloud_->GetBlobVersion(record.txn_writes[i].blob_id,
                                           outcome.versions[i]);
        if (!echo.ok() || *echo != record.txn_writes[i].payload) {
          RecordIncident(IncidentType::kPayloadTampered,
                         record.txn_writes[i].blob_id,
                         "catch-up txn read-back mismatch at version " +
                             std::to_string(outcome.versions[i]));
          return Status::IntegrityViolation(
              "catch-up read-back mismatch on " +
              record.txn_writes[i].blob_id);
        }
      }
      TC_RETURN_IF_ERROR(outbox_->MarkDone(record.seq));
      metrics_.outbox_depth.Add(-1);
      ++drained;
      continue;
    }
    auto pushed = channel_->Put(record.blob_id, record.payload,
                                &record.token);
    if (!pushed.ok()) {
      if (pushed.status().IsTransient() ||
          pushed.status().IsDeadlineExceeded()) {
        stats_.catchup_drained += drained;
        return Status::Unavailable(
            "catch-up stalled with " + std::to_string(outbox_->size()) +
            " pushes pending: " + pushed.status().ToString());
      }
      return pushed.status();
    }
    // Read-back verification: the acked version must hold exactly the
    // bytes we sealed — a provider that acked without storing (or stored
    // something else) is caught here, not at some future fetch.
    auto echo = cloud_->GetBlobVersion(record.blob_id, *pushed);
    if (!echo.ok() || *echo != record.payload) {
      RecordIncident(IncidentType::kPayloadTampered, record.blob_id,
                     "catch-up read-back mismatch at version " +
                         std::to_string(*pushed));
      return Status::IntegrityViolation("catch-up read-back mismatch on " +
                                        record.blob_id);
    }
    TC_RETURN_IF_ERROR(outbox_->MarkDone(record.seq));
    metrics_.outbox_depth.Add(-1);
    ++drained;
  }
  stats_.catchup_drained += drained;
  ExitDegraded();
  // Everything queued is durable; publish a fresh manifest so sibling
  // cells see the post-partition state.
  return SyncPush();
}

Bytes TrustedCell::DocumentAad(const std::string& doc_id, uint64_t version,
                               const Bytes& /*unused*/) const {
  BinaryWriter w;
  w.PutString("tc.doc");
  w.PutString(doc_id);
  w.PutU64(version);
  return w.Take();
}

policy::StickyPolicy::MacFn TrustedCell::StickyMac(
    const std::string& key_name) {
  std::string sticky_key = key_name + ".sticky";
  if (!tee_->keystore().HasKey(sticky_key)) {
    Status s = tee_->keystore().DeriveChildKey(key_name, sticky_key, "sticky");
    TC_CHECK(s.ok());
  }
  return [this, sticky_key](const Bytes& input) {
    auto tag = tee_->Mac(sticky_key, input);
    TC_CHECK(tag.ok());
    return *tag;
  };
}

Status TrustedCell::EnsureDocKey(const std::string& /*doc_id*/,
                                 const std::string& key_name) {
  if (tee_->keystore().HasKey(key_name)) return Status::OK();
  // The derivation label is the key name itself, so any cell of the owner
  // reconstructs the same key from metadata alone — including rotated
  // keys ("dk/<doc>/rN").
  return tee_->keystore().DeriveChildKey("owner-master", key_name, key_name);
}

Result<DocumentMeta> TrustedCell::LoadMeta(const std::string& doc_id) {
  TC_ASSIGN_OR_RETURN(Bytes data, store_->Get(MetaKey(doc_id)));
  TC_ASSIGN_OR_RETURN(auto decoded, DecodeMeta(data));
  return decoded.first;
}

Status TrustedCell::SaveMeta(const DocumentMeta& meta, bool is_new) {
  uint64_t number;
  if (is_new) {
    number = next_doc_number_++;
    doc_numbers_[meta.doc_id] = number;
    number_to_doc_[number] = meta.doc_id;
    TC_RETURN_IF_ERROR(db_->keywords().IndexDocument(
        number, meta.title + " " + meta.keywords));
  } else {
    auto it = doc_numbers_.find(meta.doc_id);
    if (it == doc_numbers_.end()) {
      return Status::Internal("meta update for unknown document");
    }
    number = it->second;
  }
  return store_->Put(MetaKey(meta.doc_id), EncodeMeta(meta, number));
}

namespace {

const char* IncidentName(IncidentType type) {
  switch (type) {
    case IncidentType::kPayloadTampered:
      return "payload_tampered";
    case IncidentType::kRollbackDetected:
      return "rollback_detected";
    case IncidentType::kForgedGrant:
      return "forged_grant";
    case IncidentType::kReplayedGrant:
      return "replayed_grant";
    case IncidentType::kPolicyTampered:
      return "policy_tampered";
    case IncidentType::kStorageDataLoss:
      return "storage_data_loss";
  }
  return "unknown";
}

}  // namespace

void TrustedCell::RecordIncident(IncidentType type,
                                 const std::string& object_id,
                                 const std::string& detail) {
  incidents_.push_back(SecurityIncident{type, object_id, detail});
  metrics_.incidents.Increment();
  obs::TraceRing::Global().Emit(obs::TraceKind::kInstant, "cell",
                                std::string("incident/") + IncidentName(type),
                                config_.cell_id + " " + object_id);
  // Every incident is journaled evidence (audit_ exists for the whole
  // post-Init lifetime; Init constructs it before the store opens).
  const obs::AuditJournal* journal = nullptr;
  if (audit_ != nullptr) {
    obs::AuditRecord record;
    record.time = clock_->Now();
    record.kind = obs::AuditKind::kIncident;
    record.subject = config_.cell_id;
    record.action = IncidentName(type);
    record.object = object_id;
    record.allowed = false;
    record.detail = detail;
    (void)audit_->journal().Append(std::move(record));
    journal = &audit_->journal();
  }
  obs::FlightRecorder::Global().Trigger(
      std::string("incident:") + IncidentName(type),
      config_.cell_id + " " + object_id + ": " + detail, journal);
}

// ---- Controlled collection ----

Status TrustedCell::IngestReading(const std::string& series, Timestamp t,
                                  int64_t value) {
  TC_RETURN_IF_ERROR(db_->timeseries().Append(series, t, value));
  ++stats_.readings_ingested;
  return Status::OK();
}

Result<std::vector<db::WindowAggregate>> TrustedCell::Aggregates(
    const std::string& series, Timestamp t0, Timestamp t1,
    Timestamp window_seconds) {
  return db_->timeseries().Windowed(series, t0, t1, window_seconds);
}

Status TrustedCell::PublishAggregate(const std::string& recipient,
                                     const std::string& series, Timestamp t0,
                                     Timestamp t1, Timestamp window_seconds) {
  TC_ASSIGN_OR_RETURN(std::vector<db::WindowAggregate> windows,
                      Aggregates(series, t0, t1, window_seconds));
  BinaryWriter w;
  w.PutString(series);
  w.PutI64(window_seconds);
  w.PutVarint(windows.size());
  for (const db::WindowAggregate& agg : windows) {
    w.PutI64(agg.window_start);
    w.PutDouble(agg.mean);
  }
  cloud_->Send(config_.cell_id, recipient, "aggregate", w.Take());
  ++stats_.aggregates_published;
  return Status::OK();
}

// ---- Secure private store ----

Result<std::string> TrustedCell::StoreDocument(const std::string& title,
                                               const std::string& keywords,
                                               const Bytes& content,
                                               const policy::Policy& policy) {
  // Cell API surface: plain spans mint a new trace when none is active,
  // so every public operation roots one causal tree (or nests under the
  // caller's, e.g. a fleet run).
  obs::TraceSpan span("cell", "store_document", config_.cell_id);
  BinaryWriter idw;
  idw.PutString(config_.cell_id);
  idw.PutU64(next_doc_number_);
  std::string doc_id = HexEncode(crypto::Sha256Hash(idw.Take())).substr(0, 16);

  std::string key_name = "dk/" + doc_id;
  TC_RETURN_IF_ERROR(EnsureDocKey(doc_id, key_name));

  DocumentMeta meta;
  meta.doc_id = doc_id;
  meta.title = title;
  meta.keywords = keywords;
  meta.origin_owner = config_.owner;
  meta.origin_cell = "";
  meta.version = 1;
  meta.size = content.size();
  meta.created = clock_->Now();
  meta.policy_envelope =
      policy::StickyPolicy::BindWithMac(policy, doc_id, StickyMac(key_name));
  meta.blob_id = SpaceBlobId(doc_id);
  meta.key_name = key_name;

  obs::Stopwatch seal_timer;
  TC_ASSIGN_OR_RETURN(
      Bytes sealed,
      tee_->Seal(key_name, DocumentAad(doc_id, meta.version, {}), content));
  metrics_.seal_us.Record(seal_timer.ElapsedUs());
  TC_RETURN_IF_ERROR(PushBlob(meta.blob_id, meta.version, sealed));
  TC_RETURN_IF_ERROR(SaveMeta(meta, /*is_new=*/true));
  ++stats_.documents_stored;
  return doc_id;
}

Status TrustedCell::UpdateDocument(const std::string& doc_id,
                                   const Bytes& content) {
  obs::TraceSpan span("cell", "update_document", doc_id);
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (meta.origin_owner != config_.owner) {
    return Status::PermissionDenied("cannot update a document shared by " +
                                    meta.origin_owner);
  }
  ++meta.version;
  meta.size = content.size();
  obs::Stopwatch seal_timer;
  TC_ASSIGN_OR_RETURN(
      Bytes sealed,
      tee_->Seal(meta.key_name, DocumentAad(doc_id, meta.version, {}),
                 content));
  metrics_.seal_us.Record(seal_timer.ElapsedUs());
  TC_RETURN_IF_ERROR(PushBlob(meta.blob_id, meta.version, sealed));
  return SaveMeta(meta, /*is_new=*/false);
}

Status TrustedCell::UpdateDocumentAtomic(const std::string& doc_id,
                                         const Bytes& content,
                                         const policy::Policy* new_policy) {
  obs::TraceSpan span("cell", "update_document_atomic", doc_id);
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (meta.origin_owner != config_.owner) {
    return Status::PermissionDenied("cannot update a document shared by " +
                                    meta.origin_owner);
  }
  ++meta.version;
  meta.size = content.size();
  if (new_policy != nullptr) {
    meta.policy_envelope = policy::StickyPolicy::BindWithMac(
        *new_policy, doc_id, StickyMac(meta.key_name));
  }
  obs::Stopwatch seal_timer;
  TC_ASSIGN_OR_RETURN(
      Bytes sealed,
      tee_->Seal(meta.key_name, DocumentAad(doc_id, meta.version, {}),
                 content));
  metrics_.seal_us.Record(seal_timer.ElapsedUs());

  // Stable across every retry AND the outbox fallback: the provider's
  // txn-token table makes this logical update exactly-once. Without an
  // outbox a failed commit leaves the version unused, so the token is
  // bound to the attempt's bytes (see PushBlob).
  const std::string token = PushToken("txn/" + meta.blob_id, meta.version);

  // Degraded fallback: journal the whole transaction and succeed locally.
  // Used both when the provider is unreachable and when a commit's fate is
  // unresolved — the drain re-sends under the same token, so the update
  // applies at most once either way. Without resilient_sync there is no
  // outbox: the transient failure that made the provider unreachable is
  // the answer.
  Status unreachable;
  auto defer = [&](uint64_t manifest_version, Bytes manifest_blob) -> Status {
    if (outbox_ == nullptr) return unreachable;
    std::vector<net::OutboxTxnWrite> writes;
    writes.push_back({meta.blob_id, sealed});
    writes.push_back({ManifestBlobId(), std::move(manifest_blob)});
    TC_RETURN_IF_ERROR(outbox_->EnqueueTxn(token, std::move(writes)));
    metrics_.outbox_depth.Add(1);
    ++stats_.txns_deferred;
    EnterDegraded();
    TC_RETURN_IF_ERROR(SaveMeta(meta, /*is_new=*/false));
    while (tee_->CounterValue("manifest-seen") < manifest_version) {
      tee_->IncrementCounter("manifest-seen");
    }
    ++stats_.atomic_updates;
    return Status::OK();
  };
  auto transient = [](const Status& status) {
    return status.IsTransient() || status.IsDeadlineExceeded();
  };

  Status last_abort = Status::Aborted("atomic update: contention");
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // Observe the provider under one snapshot. First-committer-wins
    // validation re-checks both versions at commit, so a stale observation
    // costs one abort, never correctness.
    cloud::SnapshotDescriptor snap;
    uint64_t doc_base = 0;
    uint64_t manifest_base = 0;
    auto got = channel_->GetSnapshot();
    if (got.ok()) {
      snap = std::move(*got);
    } else if (transient(got.status())) {
      unreachable = got.status();
    } else {
      return got.status();
    }
    auto observe = [&](const std::string& id, uint64_t* base) -> Status {
      if (!unreachable.ok()) return Status::OK();
      auto read = channel_->GetAtSnapshot(id, snap);
      if (read.ok()) {
        *base = read->version;
        return Status::OK();
      }
      if (read.status().IsNotFound()) return Status::OK();
      if (transient(read.status())) {
        unreachable = read.status();
        return Status::OK();
      }
      return read.status();
    };
    TC_RETURN_IF_ERROR(observe(meta.blob_id, &doc_base));
    TC_RETURN_IF_ERROR(observe(ManifestBlobId(), &manifest_base));

    // The manifest must advance past both the TEE floor and whatever the
    // provider holds.
    uint64_t manifest_version =
        std::max(tee_->CounterValue("manifest-seen"), manifest_base) + 1;
    TC_ASSIGN_OR_RETURN(Bytes manifest_blob,
                        BuildManifestBlob(manifest_version, &meta));

    if (!unreachable.ok()) {
      return defer(manifest_version, std::move(manifest_blob));
    }

    cloud::TxnRequest req;
    req.token = token;
    if (outbox_ == nullptr) {
      req.token += "|" + ContentTag(crypto::Sha256Hash2(sealed, manifest_blob));
    }
    req.snapshot = snap;
    req.writes.push_back({meta.blob_id, sealed, doc_base});
    req.writes.push_back(
        {ManifestBlobId(), std::move(manifest_blob), manifest_base});
    cloud::TxnOutcome outcome = channel_->CommitTxn(req);
    if (outcome.committed) {
      TC_RETURN_IF_ERROR(SaveMeta(meta, /*is_new=*/false));
      while (tee_->CounterValue("manifest-seen") < manifest_version) {
        tee_->IncrementCounter("manifest-seen");
      }
      ++stats_.atomic_updates;
      ++stats_.sync_pushes;  // The commit published a fresh manifest.
      return Status::OK();
    }
    if (outcome.status.IsAborted()) {
      // First committer won — refresh the snapshot, rebuild the manifest
      // against the new base, retry under the SAME token.
      ++stats_.atomic_update_aborts;
      last_abort = outcome.status;
      continue;
    }
    if (transient(outcome.status)) {
      // Unresolved fate; the token table resolves it at drain time.
      unreachable = outcome.status;
      return defer(manifest_version, std::move(req.writes[1].data));
    }
    return outcome.status;
  }
  return last_abort;
}

Result<Bytes> TrustedCell::FetchAndOpen(const DocumentMeta& meta) {
  TC_ASSIGN_OR_RETURN(Bytes blob, PullBlob(meta.blob_id));
  obs::Stopwatch unseal_timer;
  auto payload =
      tee_->Open(meta.key_name, DocumentAad(meta.doc_id, meta.version, {}),
                 blob);
  metrics_.unseal_us.Record(unseal_timer.ElapsedUs());
  if (payload.ok()) return payload;
  if (payload.status().IsIntegrityViolation()) {
    // Distinguish rollback (an older version served as latest) from blind
    // tampering: an old version still opens under its own AAD.
    for (uint64_t v = meta.version; v-- > 1;) {
      auto old = tee_->Open(meta.key_name, DocumentAad(meta.doc_id, v, {}),
                            blob);
      if (old.ok()) {
        RecordIncident(IncidentType::kRollbackDetected, meta.doc_id,
                       "cloud served version " + std::to_string(v) +
                           " as latest (" + std::to_string(meta.version) +
                           " expected)");
        return Status::IntegrityViolation("rollback detected on " +
                                          meta.doc_id);
      }
    }
    RecordIncident(IncidentType::kPayloadTampered, meta.doc_id,
                   "AEAD failure on fetched payload");
  }
  return payload;
}

Result<Bytes> TrustedCell::FetchDocument(const std::string& doc_id,
                                         const policy::Attributes& attributes) {
  obs::TraceSpan span("cell", "fetch_document", doc_id);
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (meta.pending_approval) {
    return Status::FailedPrecondition(
        "document awaits approval of the referenced individual");
  }
  auto policy = policy::StickyPolicy::VerifyAndExtractWithMac(
      meta.policy_envelope, doc_id, StickyMac(meta.key_name));
  if (!policy.ok()) {
    if (policy.status().IsIntegrityViolation()) {
      RecordIncident(IncidentType::kPolicyTampered, doc_id,
                     "sticky policy verification failed");
    }
    return policy.status();
  }
  policy::AccessRequest request{config_.owner, policy::Right::kRead,
                                attributes, clock_->Now()};
  policy::Decision decision = pdp_.EvaluateAndConsume(*policy, request);
  TC_RETURN_IF_ERROR(audit_->Append(policy::AuditEntry{
      0, clock_->Now(), config_.owner, "read", doc_id, decision.allowed,
      decision.allowed ? decision.rule_id : decision.reason}));
  if (!decision.allowed) {
    ++stats_.reads_denied;
    metrics_.reads_denied.Increment();
    return Status::PermissionDenied(decision.reason);
  }
  TC_ASSIGN_OR_RETURN(Bytes payload, FetchAndOpen(meta));
  ++stats_.documents_fetched;
  ++stats_.reads_allowed;
  metrics_.reads_allowed.Increment();
  return payload;
}

Result<std::vector<DocumentMeta>> TrustedCell::SearchDocuments(
    const std::string& term) {
  TC_ASSIGN_OR_RETURN(std::vector<uint64_t> numbers,
                      db_->keywords().Search(term));
  std::vector<DocumentMeta> out;
  for (uint64_t number : numbers) {
    auto it = number_to_doc_.find(number);
    if (it == number_to_doc_.end()) continue;
    TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(it->second));
    out.push_back(std::move(meta));
  }
  return out;
}

Result<DocumentMeta> TrustedCell::GetDocumentMeta(const std::string& doc_id) {
  return LoadMeta(doc_id);
}

std::vector<DocumentMeta> TrustedCell::ListDocuments() {
  std::vector<DocumentMeta> out;
  for (const auto& [doc_id, number] : doc_numbers_) {
    auto meta = LoadMeta(doc_id);
    if (meta.ok()) out.push_back(std::move(*meta));
  }
  return out;
}

// ---- Sync ----

Result<Bytes> TrustedCell::BuildManifestBlob(
    uint64_t version, const DocumentMeta* override_meta) {
  // Collect own documents, substituting the caller's not-yet-saved meta.
  BinaryWriter body;
  std::vector<std::string> own;
  for (const auto& [doc_id, number] : doc_numbers_) {
    if (override_meta != nullptr && doc_id == override_meta->doc_id) {
      own.push_back(doc_id);
      continue;
    }
    TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
    if (meta.origin_owner == config_.owner && meta.origin_cell.empty()) {
      own.push_back(doc_id);
    }
  }
  body.PutVarint(own.size());
  for (const std::string& doc_id : own) {
    if (override_meta != nullptr && doc_id == override_meta->doc_id) {
      body.PutBytes(EncodeMeta(*override_meta, 0));
      continue;
    }
    TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
    body.PutBytes(EncodeMeta(meta, 0));
  }

  BinaryWriter aad;
  aad.PutString("tc.manifest");
  aad.PutString(config_.owner);
  aad.PutU64(version);
  TC_ASSIGN_OR_RETURN(Bytes sealed,
                      tee_->Seal("manifest-key", aad.Take(), body.Take()));

  BinaryWriter blob;
  blob.PutString("tc.manifest.v1");
  blob.PutU64(version);
  blob.PutBytes(sealed);
  return blob.Take();
}

Status TrustedCell::SyncPush() {
  obs::TraceSpan span("cell", "sync_push", config_.cell_id);
  // Manifest version: strictly above both our floor and whatever the
  // cloud currently advertises (so concurrent cells don't collide).
  uint64_t floor = tee_->CounterValue("manifest-seen");
  auto cloud_version = cloud_->LatestBlobVersion(ManifestBlobId());
  uint64_t version = std::max<uint64_t>(
      floor, cloud_version.ok() ? *cloud_version : 0) + 1;
  while (tee_->CounterValue("manifest-seen") < version) {
    tee_->IncrementCounter("manifest-seen");
  }
  TC_ASSIGN_OR_RETURN(Bytes blob, BuildManifestBlob(version, nullptr));
  TC_RETURN_IF_ERROR(PushBlob(ManifestBlobId(), version, blob));
  ++stats_.sync_pushes;
  return Status::OK();
}

Status TrustedCell::SyncPull() {
  obs::TraceSpan span("cell", "sync_pull", config_.cell_id);
  TC_ASSIGN_OR_RETURN(Bytes blob, PullBlob(ManifestBlobId()));
  BinaryReader r(blob);
  auto magic = r.GetString();
  if (!magic.ok() || *magic != "tc.manifest.v1") {
    RecordIncident(IncidentType::kPayloadTampered, ManifestBlobId(),
                   "manifest header unparseable");
    return Status::IntegrityViolation("manifest header corrupt");
  }
  TC_ASSIGN_OR_RETURN(uint64_t version, r.GetU64());
  uint64_t floor = tee_->CounterValue("manifest-seen");
  if (version < floor) {
    RecordIncident(IncidentType::kRollbackDetected, ManifestBlobId(),
                   "manifest version " + std::to_string(version) +
                       " below TEE floor " + std::to_string(floor));
    return Status::IntegrityViolation("manifest rollback detected");
  }
  TC_ASSIGN_OR_RETURN(Bytes sealed, r.GetBytes());
  BinaryWriter aad;
  aad.PutString("tc.manifest");
  aad.PutString(config_.owner);
  aad.PutU64(version);
  auto body = tee_->Open("manifest-key", aad.Take(), sealed);
  if (!body.ok()) {
    if (body.status().IsIntegrityViolation()) {
      RecordIncident(IncidentType::kPayloadTampered, ManifestBlobId(),
                     "manifest AEAD failure");
    }
    return body.status();
  }

  BinaryReader entries(*body);
  TC_ASSIGN_OR_RETURN(uint64_t count, entries.GetVarint());
  for (uint64_t i = 0; i < count; ++i) {
    TC_ASSIGN_OR_RETURN(Bytes meta_bytes, entries.GetBytes());
    TC_ASSIGN_OR_RETURN(auto decoded, DecodeMeta(meta_bytes));
    DocumentMeta& incoming = decoded.first;
    auto existing = LoadMeta(incoming.doc_id);
    if (existing.ok() && existing->version >= incoming.version) continue;
    TC_RETURN_IF_ERROR(EnsureDocKey(incoming.doc_id, incoming.key_name));
    TC_RETURN_IF_ERROR(SaveMeta(incoming, /*is_new=*/!existing.ok()));
  }
  while (tee_->CounterValue("manifest-seen") < version) {
    tee_->IncrementCounter("manifest-seen");
  }
  ++stats_.sync_pulls;
  return Status::OK();
}

// ---- Sharing ----

Status TrustedCell::ShareDocument(const std::string& doc_id,
                                  const std::string& recipient_cell,
                                  const policy::Policy& policy) {
  obs::TraceSpan span("cell", "share_document", doc_id);
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (meta.pending_approval) {
    return Status::FailedPrecondition(
        "document awaits approval of the referenced individual");
  }
  if (meta.origin_owner != config_.owner) {
    // Re-sharing of received documents requires the kShare right.
    auto sticky = policy::StickyPolicy::VerifyAndExtractWithMac(
        meta.policy_envelope, doc_id, StickyMac(meta.key_name));
    TC_RETURN_IF_ERROR(sticky.status());
    policy::AccessRequest request{config_.owner, policy::Right::kShare,
                                  {}, clock_->Now()};
    policy::Decision decision = pdp_.EvaluateAndConsume(*sticky, request);
    if (!decision.allowed) {
      return Status::PermissionDenied("re-share denied: " + decision.reason);
    }
  }
  TC_ASSIGN_OR_RETURN(CellIdentity recipient,
                      directory_->Lookup(recipient_cell));

  ShareGrant grant;
  grant.grant_id = config_.cell_id + "/g" + std::to_string(next_grant_number_++);
  grant.doc_id = doc_id;
  grant.blob_id = meta.blob_id;
  grant.origin_owner = meta.origin_owner;
  grant.version = meta.version;
  grant.title = meta.title;
  grant.keywords = meta.keywords;
  grant.sender_cell = config_.cell_id;
  grant.recipient_cell = recipient_cell;
  grant.policy_envelope =
      policy::StickyPolicy::BindWithMac(policy, doc_id, StickyMac(meta.key_name));

  BinaryWriter ctx;
  ctx.PutString(doc_id);
  ctx.PutBytes(policy.Hash());
  TC_ASSIGN_OR_RETURN(
      grant.wrapped_key,
      tee_->WrapKeyFor(recipient.dh_public_key, meta.key_name, ctx.Take()));
  grant.signature = tee_->Sign(grant.SignedPayload());

  cloud_->Send(config_.cell_id, recipient_cell, "share", grant.Serialize());
  TC_RETURN_IF_ERROR(audit_->Append(policy::AuditEntry{
      0, clock_->Now(), config_.owner, "share", doc_id, true,
      "to " + recipient_cell}));
  ++stats_.shares_sent;
  return Status::OK();
}

Result<int> TrustedCell::ProcessInbox() {
  obs::TraceSpan span("cell", "process_inbox", config_.cell_id);
  int accepted = 0;
  for (cloud::Message& msg : cloud_->Receive(config_.cell_id)) {
    if (msg.topic == "guardian-share") {
      // Install the escrow share of another owner's master key.
      BinaryReader r(msg.payload);
      auto owner = r.GetString();
      auto envelope = r.GetBytes();
      auto sender = directory_->Lookup(msg.from);
      if (!owner.ok() || !envelope.ok() || !sender.ok()) continue;
      BinaryWriter ctx;
      ctx.PutString("tc.guardian." + *owner);
      std::string key_name = "gs/" + *owner;
      if (tee_->keystore().HasKey(key_name)) {
        (void)tee_->keystore().DestroyKey(key_name);
      }
      Status unwrapped = tee_->UnwrapKeyFrom(sender->dh_public_key, *envelope,
                                             ctx.Take(), key_name);
      if (!unwrapped.ok()) {
        RecordIncident(IncidentType::kForgedGrant, *owner,
                       "guardian share failed to unwrap");
      }
      continue;
    }
    if (msg.topic != "share") {
      pending_messages_.push_back(std::move(msg));
      continue;
    }
    auto grant = ShareGrant::Deserialize(msg.payload);
    if (!grant.ok()) {
      RecordIncident(IncidentType::kForgedGrant, "?",
                     "unparseable grant from " + msg.from);
      continue;
    }
    if (seen_grant_ids_.count(grant->grant_id) > 0) {
      RecordIncident(IncidentType::kReplayedGrant, grant->doc_id,
                     "grant " + grant->grant_id + " replayed");
      continue;
    }
    auto sender = directory_->Lookup(grant->sender_cell);
    if (!sender.ok() ||
        !tee::TrustedExecutionEnvironment::VerifySignature(
            sender->signing_public_key, grant->SignedPayload(),
            grant->signature, config_.group_bits)) {
      RecordIncident(IncidentType::kForgedGrant, grant->doc_id,
                     "signature check failed for grant from " +
                         grant->sender_cell);
      continue;
    }
    if (grant->recipient_cell != config_.cell_id) {
      RecordIncident(IncidentType::kForgedGrant, grant->doc_id,
                     "grant addressed to " + grant->recipient_cell);
      continue;
    }
    auto policy_hash =
        policy::StickyPolicy::PeekPolicyHash(grant->policy_envelope);
    if (!policy_hash.ok()) {
      RecordIncident(IncidentType::kPolicyTampered, grant->doc_id,
                     "grant policy envelope unparseable");
      continue;
    }
    BinaryWriter ctx;
    ctx.PutString(grant->doc_id);
    ctx.PutBytes(*policy_hash);
    std::string key_name = "sk/" + grant->doc_id;
    if (tee_->keystore().HasKey(key_name)) {
      (void)tee_->keystore().DestroyKey(key_name);
      (void)tee_->keystore().DestroyKey(key_name + ".sticky");
    }
    Status unwrapped = tee_->UnwrapKeyFrom(sender->dh_public_key,
                                           grant->wrapped_key, ctx.Take(),
                                           key_name);
    if (!unwrapped.ok()) {
      RecordIncident(IncidentType::kPolicyTampered, grant->doc_id,
                     "wrapped key failed to open: " + unwrapped.message());
      continue;
    }

    DocumentMeta meta;
    meta.doc_id = grant->doc_id;
    meta.title = grant->title;
    meta.keywords = grant->keywords;
    meta.origin_owner = grant->origin_owner;
    meta.origin_cell = grant->sender_cell;
    meta.version = grant->version;
    meta.created = clock_->Now();
    meta.policy_envelope = grant->policy_envelope;
    meta.blob_id = grant->blob_id;
    meta.key_name = key_name;
    bool is_new = doc_numbers_.count(meta.doc_id) == 0;
    TC_RETURN_IF_ERROR(SaveMeta(meta, is_new));
    seen_grant_ids_.insert(grant->grant_id);
    ++stats_.shares_accepted;
    ++accepted;
  }
  return accepted;
}

std::vector<cloud::Message> TrustedCell::TakeMessages(
    const std::string& topic) {
  std::vector<cloud::Message> out;
  auto it = pending_messages_.begin();
  while (it != pending_messages_.end()) {
    if (it->topic == topic) {
      out.push_back(std::move(*it));
      it = pending_messages_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

Result<Bytes> TrustedCell::ReadSharedDocument(
    const std::string& doc_id, const std::string& subject,
    const policy::Attributes& attributes) {
  obs::TraceSpan span("cell", "read_shared_document", doc_id);
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  auto policy = policy::StickyPolicy::VerifyAndExtractWithMac(
      meta.policy_envelope, doc_id, StickyMac(meta.key_name));
  if (!policy.ok()) {
    if (policy.status().IsIntegrityViolation()) {
      RecordIncident(IncidentType::kPolicyTampered, doc_id,
                     "sticky policy verification failed");
    }
    return policy.status();
  }

  policy::AccessRequest request{subject, policy::Right::kRead, attributes,
                                clock_->Now()};
  policy::Decision decision = pdp_.EvaluateAndConsume(*policy, request);
  TC_RETURN_IF_ERROR(audit_->Append(policy::AuditEntry{
      0, clock_->Now(), subject, "read", doc_id, decision.allowed,
      decision.allowed ? decision.rule_id : decision.reason}));
  if (!decision.allowed) {
    ++stats_.reads_denied;
    metrics_.reads_denied.Increment();
    return Status::PermissionDenied(decision.reason);
  }

  TC_ASSIGN_OR_RETURN(Bytes payload, FetchAndOpen(meta));

  // Obligations are discharged mechanically — that is what "enforced by
  // any trusted cell downloading data" means.
  for (policy::ObligationType obligation : decision.obligations) {
    switch (obligation) {
      case policy::ObligationType::kLogAccess:
        break;  // Already appended above.
      case policy::ObligationType::kNotifyOwner: {
        BinaryWriter w;
        w.PutString(doc_id);
        w.PutString(subject);
        w.PutI64(clock_->Now());
        if (!meta.origin_cell.empty()) {
          cloud_->Send(config_.cell_id, meta.origin_cell,
                       "access-notification", w.Take());
        }
        break;
      }
      case policy::ObligationType::kDeleteAfterUse: {
        TC_RETURN_IF_ERROR(store_->Delete(MetaKey(doc_id)));
        (void)tee_->keystore().DestroyKey(meta.key_name);
        (void)tee_->keystore().DestroyKey(meta.key_name + ".sticky");
        auto num = doc_numbers_.find(doc_id);
        if (num != doc_numbers_.end()) {
          number_to_doc_.erase(num->second);
          doc_numbers_.erase(num);
        }
        break;
      }
    }
  }
  ++stats_.reads_allowed;
  metrics_.reads_allowed.Increment();
  ++stats_.documents_fetched;
  return payload;
}

// ---- Space proofs & key rotation ----

namespace {

Bytes SpaceLeaf(const std::string& doc_id, uint64_t version,
                const Bytes& sealed_payload_hash) {
  BinaryWriter w;
  w.PutString("tc.space-leaf.v1");
  w.PutString(doc_id);
  w.PutU64(version);
  w.PutBytes(sealed_payload_hash);
  return w.Take();
}

Bytes SpaceRootPayload(const std::string& cell_id, const Bytes& root) {
  BinaryWriter w;
  w.PutString("tc.space-root.v1");
  w.PutString(cell_id);
  w.PutBytes(root);
  return w.Take();
}

}  // namespace

Result<TrustedCell::SpaceProof> TrustedCell::ProveDocumentInSpace(
    const std::string& doc_id) {
  // Leaves over all own documents, ordered by doc id (doc_numbers_ is an
  // ordered map, so both prover and any owner cell agree on the order).
  std::vector<Bytes> leaves;
  int target_index = -1;
  SpaceProof out;
  for (const auto& [id, number] : doc_numbers_) {
    TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(id));
    if (meta.origin_owner != config_.owner || !meta.origin_cell.empty()) {
      continue;  // Own documents only.
    }
    TC_ASSIGN_OR_RETURN(Bytes sealed, PullBlob(meta.blob_id));
    Bytes leaf = SpaceLeaf(id, meta.version, crypto::Sha256Hash(sealed));
    if (id == doc_id) {
      target_index = static_cast<int>(leaves.size());
      out.version = meta.version;
      out.leaf = leaf;
    }
    leaves.push_back(std::move(leaf));
  }
  if (target_index < 0) {
    return Status::NotFound("document not in this cell's own space");
  }
  TC_ASSIGN_OR_RETURN(crypto::MerkleTree tree,
                      crypto::MerkleTree::Build(leaves));
  TC_ASSIGN_OR_RETURN(out.proof, tree.Prove(target_index));
  out.cell_id = config_.cell_id;
  out.doc_id = doc_id;
  out.root = tree.root();
  out.root_signature = tee_->Sign(SpaceRootPayload(config_.cell_id,
                                                   out.root));
  return out;
}

bool TrustedCell::VerifySpaceProof(const SpaceProof& proof,
                                   const CellDirectory& directory,
                                   size_t group_bits) {
  auto identity = directory.Lookup(proof.cell_id);
  if (!identity.ok()) return false;
  // The leaf must commit to the claimed document id/version.
  BinaryReader r(proof.leaf);
  auto magic = r.GetString();
  auto doc_id = r.GetString();
  auto version = r.GetU64();
  if (!magic.ok() || *magic != "tc.space-leaf.v1" || !doc_id.ok() ||
      *doc_id != proof.doc_id || !version.ok() ||
      *version != proof.version) {
    return false;
  }
  if (!crypto::MerkleTree::Verify(proof.root, proof.leaf, proof.proof)) {
    return false;
  }
  return tee::TrustedExecutionEnvironment::VerifySignature(
      identity->signing_public_key,
      SpaceRootPayload(proof.cell_id, proof.root), proof.root_signature,
      group_bits);
}

Status TrustedCell::RotateDocumentKey(const std::string& doc_id) {
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (meta.origin_owner != config_.owner || !meta.origin_cell.empty()) {
    return Status::PermissionDenied("only the owner rotates document keys");
  }
  // Current policy, verified under the old key.
  TC_ASSIGN_OR_RETURN(policy::Policy policy,
                      policy::StickyPolicy::VerifyAndExtractWithMac(
                          meta.policy_envelope, doc_id,
                          StickyMac(meta.key_name)));
  TC_ASSIGN_OR_RETURN(Bytes payload, FetchAndOpen(meta));

  std::string old_key = meta.key_name;
  std::string new_key =
      "dk/" + doc_id + "/r" + std::to_string(meta.version + 1);
  TC_RETURN_IF_ERROR(EnsureDocKey(doc_id, new_key));

  meta.version += 1;
  meta.key_name = new_key;
  meta.policy_envelope =
      policy::StickyPolicy::BindWithMac(policy, doc_id, StickyMac(new_key));
  TC_ASSIGN_OR_RETURN(
      Bytes sealed,
      tee_->Seal(new_key, DocumentAad(doc_id, meta.version, {}), payload));
  TC_RETURN_IF_ERROR(PushBlob(meta.blob_id, meta.version, sealed));
  TC_RETURN_IF_ERROR(SaveMeta(meta, /*is_new=*/false));
  (void)tee_->keystore().DestroyKey(old_key);
  (void)tee_->keystore().DestroyKey(old_key + ".sticky");
  TC_RETURN_IF_ERROR(audit_->Append(policy::AuditEntry{
      0, clock_->Now(), config_.owner, "rotate-key", doc_id, true, ""}));
  return Status::OK();
}

// ---- Guardian recovery ----

Status TrustedCell::EnrollGuardians(
    const std::vector<std::string>& guardian_cells, int threshold) {
  std::vector<crypto::BigInt> publics;
  for (const std::string& guardian : guardian_cells) {
    TC_ASSIGN_OR_RETURN(CellIdentity identity, directory_->Lookup(guardian));
    publics.push_back(identity.dh_public_key);
  }
  BinaryWriter ctx;
  ctx.PutString("tc.guardian." + config_.owner);
  TC_ASSIGN_OR_RETURN(
      std::vector<Bytes> envelopes,
      tee_->ShardKeyFor("owner-master", threshold, publics, ctx.buffer()));
  for (size_t i = 0; i < envelopes.size(); ++i) {
    BinaryWriter w;
    w.PutString(config_.owner);
    w.PutBytes(envelopes[i]);
    cloud_->Send(config_.cell_id, guardian_cells[i], "guardian-share",
                 w.Take());
  }
  return Status::OK();
}

bool TrustedCell::HoldsGuardianShareFor(const std::string& owner) const {
  return tee_->keystore().HasKey("gs/" + owner);
}

Status TrustedCell::ReleaseGuardianShare(const std::string& owner,
                                         const std::string& requester_cell) {
  std::string share_key = "gs/" + owner;
  if (!tee_->keystore().HasKey(share_key)) {
    return Status::NotFound("no guardian share held for " + owner);
  }
  TC_ASSIGN_OR_RETURN(CellIdentity requester,
                      directory_->Lookup(requester_cell));
  BinaryWriter ctx;
  ctx.PutString("tc.recovery." + owner);
  TC_ASSIGN_OR_RETURN(
      Bytes envelope,
      tee_->WrapKeyFor(requester.dh_public_key, share_key, ctx.Take()));
  BinaryWriter w;
  w.PutString(owner);
  w.PutBytes(envelope);
  cloud_->Send(config_.cell_id, requester_cell, "recovery-share", w.Take());
  return Status::OK();
}

Result<int> TrustedCell::CompleteRecovery(
    const std::vector<cloud::Message>& shares) {
  std::vector<std::string> share_keys;
  for (const cloud::Message& msg : shares) {
    BinaryReader r(msg.payload);
    TC_ASSIGN_OR_RETURN(std::string owner, r.GetString());
    if (owner != config_.owner) continue;
    TC_ASSIGN_OR_RETURN(Bytes envelope, r.GetBytes());
    TC_ASSIGN_OR_RETURN(CellIdentity sender, directory_->Lookup(msg.from));
    BinaryWriter ctx;
    ctx.PutString("tc.recovery." + owner);
    std::string key_name = "rs/" + std::to_string(share_keys.size());
    if (tee_->keystore().HasKey(key_name)) {
      (void)tee_->keystore().DestroyKey(key_name);
    }
    TC_RETURN_IF_ERROR(tee_->UnwrapKeyFrom(sender.dh_public_key, envelope,
                                           ctx.Take(), key_name));
    share_keys.push_back(key_name);
  }
  if (share_keys.empty()) {
    return Status::FailedPrecondition("no usable recovery shares");
  }
  TC_RETURN_IF_ERROR(
      tee_->ReconstructKeyFromShares(share_keys, "owner-master-recovered"));
  TC_RETURN_IF_ERROR(tee_->ReplaceKey("owner-master",
                                      "owner-master-recovered"));
  (void)tee_->keystore().DestroyKey("owner-master-recovered");
  for (const std::string& name : share_keys) {
    (void)tee_->keystore().DestroyKey(name);
  }
  // Re-derive the owner-space keys from the true master; per-cell keys
  // (storage-root, audit) stay as provisioned.
  (void)tee_->keystore().DestroyKey("manifest-key");
  TC_RETURN_IF_ERROR(tee_->keystore().DeriveChildKey(
      "owner-master", "manifest-key", "manifest"));
  return static_cast<int>(share_keys.size());
}

// ---- Cross-principal approval ----

Result<std::string> TrustedCell::ProposeDocumentReferencing(
    const std::string& referenced_cell, const std::string& title,
    const std::string& keywords, const Bytes& content,
    const policy::Policy& policy) {
  TC_ASSIGN_OR_RETURN(CellIdentity referenced,
                      directory_->Lookup(referenced_cell));
  TC_ASSIGN_OR_RETURN(std::string doc_id,
                      StoreDocument(title, keywords, content, policy));
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  meta.pending_approval = true;
  TC_RETURN_IF_ERROR(SaveMeta(meta, /*is_new=*/false));

  BinaryWriter w;
  w.PutString(doc_id);
  w.PutString(title);
  w.PutString(config_.owner);
  cloud_->Send(config_.cell_id, referenced_cell, "approval-request",
               w.Take());
  return doc_id;
}

Status TrustedCell::RespondToApproval(const cloud::Message& request,
                                      bool approve) {
  BinaryReader r(request.payload);
  TC_ASSIGN_OR_RETURN(std::string doc_id, r.GetString());
  BinaryWriter w;
  w.PutString(doc_id);
  w.PutBool(approve);
  cloud_->Send(config_.cell_id, request.from, "approval-response", w.Take());
  TC_RETURN_IF_ERROR(audit_->Append(policy::AuditEntry{
      0, clock_->Now(), config_.owner, "approval", doc_id, approve,
      "reference approval for " + request.from}));
  return Status::OK();
}

Result<std::pair<int, int>> TrustedCell::ProcessApprovalResponses() {
  int approved = 0, rejected = 0;
  for (const cloud::Message& msg : TakeMessages("approval-response")) {
    BinaryReader r(msg.payload);
    TC_ASSIGN_OR_RETURN(std::string doc_id, r.GetString());
    TC_ASSIGN_OR_RETURN(bool approve, r.GetBool());
    auto meta = LoadMeta(doc_id);
    if (!meta.ok() || !meta->pending_approval) continue;
    if (approve) {
      meta->pending_approval = false;
      TC_RETURN_IF_ERROR(SaveMeta(*meta, /*is_new=*/false));
      ++approved;
    } else {
      // Rejected: erase the metadata and keys; the sealed cloud blob is
      // unreadable without them.
      TC_RETURN_IF_ERROR(store_->Delete(MetaKey(doc_id)));
      (void)tee_->keystore().DestroyKey(meta->key_name);
      (void)tee_->keystore().DestroyKey(meta->key_name + ".sticky");
      auto num = doc_numbers_.find(doc_id);
      if (num != doc_numbers_.end()) {
        number_to_doc_.erase(num->second);
        doc_numbers_.erase(num);
      }
      ++rejected;
    }
  }
  return std::make_pair(approved, rejected);
}

// ---- Accountability ----

Status TrustedCell::PushAuditLog(const std::string& recipient_cell) {
  TC_ASSIGN_OR_RETURN(CellIdentity recipient,
                      directory_->Lookup(recipient_cell));
  BinaryWriter ctx;
  ctx.PutString("tc.audit-key");
  ctx.PutString(config_.cell_id);
  TC_ASSIGN_OR_RETURN(
      Bytes wrapped,
      tee_->WrapKeyFor(recipient.dh_public_key, "audit-key", ctx.Take()));
  TC_ASSIGN_OR_RETURN(Bytes exported, audit_->Export());
  BinaryWriter w;
  w.PutString(config_.cell_id);
  w.PutU64(audit_->size());
  w.PutBytes(wrapped);
  w.PutBytes(exported);
  cloud_->Send(config_.cell_id, recipient_cell, "audit-log", w.Take());
  return Status::OK();
}

Result<std::vector<obs::AuditRecord>> TrustedCell::VerifyAuditPush(
    const cloud::Message& message) {
  BinaryReader r(message.payload);
  TC_ASSIGN_OR_RETURN(std::string sender_cell, r.GetString());
  TC_ASSIGN_OR_RETURN(uint64_t count, r.GetU64());
  TC_ASSIGN_OR_RETURN(Bytes wrapped, r.GetBytes());
  TC_ASSIGN_OR_RETURN(Bytes exported, r.GetBytes());

  TC_ASSIGN_OR_RETURN(CellIdentity sender, directory_->Lookup(sender_cell));
  BinaryWriter ctx;
  ctx.PutString("tc.audit-key");
  ctx.PutString(sender_cell);
  std::string key_name = "ak/" + sender_cell;
  if (tee_->keystore().HasKey(key_name)) {
    (void)tee_->keystore().DestroyKey(key_name);
  }
  TC_RETURN_IF_ERROR(tee_->UnwrapKeyFrom(sender.dh_public_key, wrapped,
                                         ctx.Take(), key_name));
  return policy::AuditLog::VerifyAndDecrypt(exported, tee_.get(), key_name,
                                            static_cast<int64_t>(count));
}

// ---- Shared commons ----

Result<int64_t> TrustedCell::ProvideAggregateValue(const std::string& series,
                                                   Timestamp t0,
                                                   Timestamp t1) {
  TC_ASSIGN_OR_RETURN(std::vector<db::Reading> readings,
                      db_->timeseries().Range(series, t0, t1));
  int64_t sum = 0;
  for (const db::Reading& r : readings) sum += r.value;
  return sum;
}

}  // namespace tc::cell
