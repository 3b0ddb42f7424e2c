#ifndef TC_CELL_CELL_H_
#define TC_CELL_CELL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "tc/cell/directory.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/clock.h"
#include "tc/common/result.h"
#include "tc/crypto/merkle.h"
#include "tc/db/database.h"
#include "tc/db/timeseries.h"
#include "tc/net/channel.h"
#include "tc/net/outbox.h"
#include "tc/obs/metrics.h"
#include "tc/policy/audit.h"
#include "tc/policy/sticky_policy.h"
#include "tc/policy/ucon.h"
#include "tc/sensors/power_meter.h"
#include "tc/storage/flash_device.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"
#include "tc/tee/tee.h"

namespace tc::cell {

/// Local metadata of a vault document.
struct DocumentMeta {
  std::string doc_id;
  std::string title;
  std::string keywords;
  std::string origin_owner;   ///< Whose personal space hosts the payload.
  std::string origin_cell;    ///< Cell that granted access ("" = own doc).
  uint64_t version = 0;
  size_t size = 0;
  Timestamp created = 0;
  Bytes policy_envelope;      ///< Sticky policy (bound to the data key).
  std::string blob_id;        ///< Cloud location of the sealed payload.
  std::string key_name;       ///< TEE key handle for the payload.
  /// True while a referenced individual's approval is outstanding (the
  /// paper's cross-principal usage control: data referencing B must be
  /// "submitted for approbation to B's trusted cell"). Pending documents
  /// cannot be fetched or shared.
  bool pending_approval = false;
};

/// Wire format of a sharing grant: metadata + wrapped key + sticky policy,
/// signed by the granting cell. Safe to carry over the untrusted bus.
struct ShareGrant {
  std::string grant_id;
  std::string doc_id;
  std::string blob_id;
  std::string origin_owner;
  uint64_t version = 0;
  std::string title;
  std::string keywords;
  std::string sender_cell;
  std::string recipient_cell;
  Bytes policy_envelope;
  Bytes wrapped_key;
  crypto::SchnorrSignature signature;

  Bytes SignedPayload() const;
  Bytes Serialize() const;
  static Result<ShareGrant> Deserialize(const Bytes& data);
};

/// Security incidents a cell detects (convictions of the weakly-malicious
/// infrastructure, forged grants, replays). E8's detection-rate metric
/// counts these against the adversary's ground truth.
enum class IncidentType : uint8_t {
  kPayloadTampered = 1,   ///< AEAD failure on a fetched blob.
  kRollbackDetected = 2,  ///< Version regression on manifest or blob.
  kForgedGrant = 3,       ///< Share grant with a bad signature.
  kReplayedGrant = 4,     ///< Grant id seen twice.
  kPolicyTampered = 5,    ///< Sticky-policy binding failure.
  kStorageDataLoss = 6,   ///< Undecodable flash pages skipped at recovery.
};

struct SecurityIncident {
  IncidentType type;
  std::string object_id;
  std::string detail;
};

/// Operation counters for the experiment harnesses.
struct CellStats {
  uint64_t documents_stored = 0;
  uint64_t documents_fetched = 0;
  uint64_t shares_sent = 0;
  uint64_t shares_accepted = 0;
  uint64_t reads_allowed = 0;
  uint64_t reads_denied = 0;
  uint64_t readings_ingested = 0;
  uint64_t aggregates_published = 0;
  uint64_t sync_pushes = 0;
  uint64_t sync_pulls = 0;
  uint64_t pushes_deferred = 0;   ///< Cloud pushes queued to the outbox.
  uint64_t catchup_drained = 0;   ///< Outbox records drained by CatchUp.
  uint64_t atomic_updates = 0;        ///< UpdateDocumentAtomic completions.
  uint64_t atomic_update_aborts = 0;  ///< FCW aborts retried (same token).
  uint64_t txns_deferred = 0;     ///< Whole transactions queued to the outbox.
};

/// A trusted cell: the paper's "personal data server running on secure
/// hardware", composed of
///   * a simulated TEE (keys, counters, attestation)            [tc::tee]
///   * an encrypted log-structured datastore on simulated NAND  [tc::storage]
///   * an embedded database (tables, time series, keywords)     [tc::db]
///   * a UCON decision point, sticky policies and an audit log  [tc::policy]
/// talking to peers exclusively through the untrusted cloud     [tc::cloud].
/// Every blob, snapshot and commit call crosses one net::ResilientChannel
/// (over Config::transport, else in-process) into the provider's edge, so
/// an attached NetworkFaultInjector and overload gate see all of it; bus
/// messages still call the provider directly.
///
/// The public API is organized around the paper's five requirements:
/// controlled collection (IngestReading / PublishAggregate), secure private
/// store (StoreDocument / FetchDocument / Search / SyncPush / SyncPull),
/// secure sharing (ShareDocument / ProcessInbox / ReadSharedDocument),
/// usage & accountability (sticky policies + audit log + notifications),
/// and shared commons (ProvideAggregateValue feeding tc::compute).
///
/// Observability (tc::obs global registry, aggregated across cells):
///   cell.seal_us / cell.unseal_us    histograms, TEE AEAD cost per doc
///   cell.policy.reads_allowed /
///   cell.policy.reads_denied         counters, UCON decisions
///   cell.incidents                   counter (+ a trace instant carrying
///                                    the cell id and incident detail)
class TrustedCell {
 public:
  struct Config {
    std::string cell_id;
    std::string owner;
    tee::DeviceClass device_class = tee::DeviceClass::kHomeGateway;
    /// Flash geometry; default sized by device class when page_size == 0.
    storage::FlashGeometry flash{};
    size_t group_bits = 512;
    bool use_default_flash = true;
    /// User enrollment secret mixed into the owner master key (models the
    /// passphrase entered when adding a device). Cells of one owner must
    /// use the same value to share a personal space; a cell created with
    /// the wrong value needs guardian recovery (CompleteRecovery).
    std::string enrollment_secret;
    /// Defer transient provider failures to a LogStore-journaled outbox:
    /// a push the provider cannot take goes to the outbox and the cell
    /// keeps working in degraded local-only mode until CatchUp drains it.
    /// Off by default: a transient failure (once the channel's retries are
    /// spent) is returned to the caller.
    bool resilient_sync = false;
    /// Retry/backoff, deadline budget and circuit breaker of the channel
    /// every provider call of the cell crosses. Without resilient_sync the
    /// breaker never opens: there is no degraded mode for it to enter.
    net::ChannelOptions channel;
    /// When set, the cell's channel crosses this transport (e.g. an
    /// rpc::SocketTransport to a provider in another process) instead of
    /// calling the CloudInfrastructure in-process — with or without
    /// resilient_sync. Not owned; must outlive the cell.
    net::CloudTransport* transport = nullptr;
  };

  /// Creates the cell, provisions its TEE (owner master key, storage root
  /// key), opens the encrypted store and registers in `directory`.
  static Result<std::unique_ptr<TrustedCell>> Create(
      const Config& config, cloud::CloudInfrastructure* cloud,
      CellDirectory* directory, const Clock* clock);

  const std::string& id() const { return config_.cell_id; }
  const std::string& owner() const { return config_.owner; }
  tee::TrustedExecutionEnvironment& tee() { return *tee_; }
  db::Database& database() { return *db_; }
  storage::LogStore& store() { return *store_; }
  policy::DecisionPoint& pdp() { return pdp_; }
  const CellStats& stats() const { return stats_; }
  const std::vector<SecurityIncident>& incidents() const { return incidents_; }

  // ---- Controlled collection of sensed data ----

  /// Ingests one raw reading from a local trusted source (e.g. the 1 Hz
  /// Linky feed over the home short-range link).
  Status IngestReading(const std::string& series, Timestamp t, int64_t value);

  /// Epoch-aligned window aggregates of a local series — the *only* view
  /// the cell exposes at each externalization granularity.
  Result<std::vector<db::WindowAggregate>> Aggregates(
      const std::string& series, Timestamp t0, Timestamp t1,
      Timestamp window_seconds);

  /// Externalizes window means of [t0, t1) to `recipient` via the cloud
  /// bus (plaintext by design: this IS the release, at the granularity the
  /// owner opted into).
  Status PublishAggregate(const std::string& recipient,
                          const std::string& series, Timestamp t0,
                          Timestamp t1, Timestamp window_seconds);

  // ---- Secure private store ----

  /// Stores a document: payload sealed and pushed to the owner's personal
  /// cloud space, metadata + sticky policy kept locally and indexed.
  /// Returns the document id.
  Result<std::string> StoreDocument(const std::string& title,
                                    const std::string& keywords,
                                    const Bytes& content,
                                    const policy::Policy& policy);

  /// Replaces the payload (version bump; old cloud versions become
  /// rollback bait the cell must detect).
  Status UpdateDocument(const std::string& doc_id, const Bytes& content);

  /// Atomic policy+data+manifest update — the sharing-scenario primitive
  /// the paper needs: the sealed payload (optionally re-bound to
  /// `new_policy`) and the refreshed manifest reach the provider in ONE
  /// multi-key transaction, so no sibling cell can ever observe new data
  /// under an old manifest or vice versa. First-committer-wins aborts
  /// (a sibling moved the manifest or the document first) are transient:
  /// the cell refreshes its snapshot and retries under the SAME txn token
  /// (bounded; the final abort is returned if contention never clears).
  /// With resilient_sync, an unreachable provider (or an unresolved
  /// commit) journals the whole transaction to the outbox — it drains
  /// atomically in CatchUp under its original token; without it, that
  /// transient failure is returned.
  Status UpdateDocumentAtomic(const std::string& doc_id, const Bytes& content,
                              const policy::Policy* new_policy = nullptr);

  /// Owner read of an own document, policy-checked with the owner as
  /// subject ("the trusted cell owner ... only gets data according to her
  /// privileges").
  Result<Bytes> FetchDocument(const std::string& doc_id,
                              const policy::Attributes& attributes = {});

  /// Metadata-first search: runs entirely on the local keyword index,
  /// touching the cloud not at all.
  Result<std::vector<DocumentMeta>> SearchDocuments(const std::string& term);

  Result<DocumentMeta> GetDocumentMeta(const std::string& doc_id);
  std::vector<DocumentMeta> ListDocuments();

  // ---- Multi-device sync (one owner, several cells) ----

  /// Publishes the manifest of own documents to the owner's personal
  /// space (sealed, version = TEE monotonic counter).
  Status SyncPush();

  /// Pulls the owner's manifest from the cloud, detects rollback via the
  /// TEE-remembered version floor, and adopts new/updated metadata.
  /// Payloads stay in the cloud until fetched (metadata-first).
  Status SyncPull();

  // ---- Disconnected operation (resilient_sync mode) ----

  /// True while the cell is partitioned from the provider: local writes
  /// succeed and queue in the durable outbox, reads of queued blobs are
  /// served locally (read-your-writes).
  bool degraded() const { return degraded_; }

  /// Pushes still queued for the provider.
  size_t outbox_pending() const { return outbox_ ? outbox_->size() : 0; }

  /// Anti-entropy catch-up: drains the outbox in order (each record
  /// re-pushed under its original idempotency token, so a push whose ack
  /// was lost is deduped server-side), read-back-verifies every drained
  /// blob against the provider, then republishes the manifest. Returns
  /// kUnavailable if the provider is still unreachable — the outbox keeps
  /// the remainder and the cell stays degraded.
  Status CatchUp();

  /// The channel every blob/snapshot/commit call crosses (tests and the
  /// benchmarks inspect its stats and virtual clock).
  net::ResilientChannel* net_channel() { return channel_.get(); }

  // ---- Secure sharing ----

  /// Grants `recipient_cell` access to an own document under `policy`:
  /// wraps the doc key to the recipient, binds the sticky policy and sends
  /// the signed grant via the cloud bus.
  Status ShareDocument(const std::string& doc_id,
                       const std::string& recipient_cell,
                       const policy::Policy& policy);

  /// Drains the cloud inbox: validates share grants (signature via the
  /// directory, replay check), installs wrapped keys and metadata. Other
  /// message topics are retained for TakeMessages. Returns the number of
  /// grants accepted.
  Result<int> ProcessInbox();

  /// Removes and returns retained inbox messages of `topic` (aggregates,
  /// access notifications, audit pushes...).
  std::vector<cloud::Message> TakeMessages(const std::string& topic);

  /// Reads a shared document as `subject`: verifies the sticky policy,
  /// evaluates UCON (consuming a use), discharges obligations (audit,
  /// owner notification), then fetches and unseals the payload.
  Result<Bytes> ReadSharedDocument(const std::string& doc_id,
                                   const std::string& subject,
                                   const policy::Attributes& attributes = {});

  // ---- Space proofs & key rotation ----

  /// A verifiable statement that a document (by id, version and payload
  /// hash) is part of this cell's personal space: Merkle inclusion proof
  /// against a root signed by the cell. Lets a third party check
  /// provenance without seeing any other document.
  struct SpaceProof {
    std::string cell_id;
    std::string doc_id;
    uint64_t version = 0;
    Bytes leaf;  ///< Serialized (doc_id, version, payload hash).
    crypto::MerkleProof proof;
    Bytes root;
    crypto::SchnorrSignature root_signature;
  };

  /// Builds a SpaceProof for an own document.
  Result<SpaceProof> ProveDocumentInSpace(const std::string& doc_id);

  /// Verifier side (any party): checks the Merkle path and the signature
  /// of the claimed cell (public key from the directory).
  static bool VerifySpaceProof(const SpaceProof& proof,
                               const CellDirectory& directory,
                               size_t group_bits = 512);

  /// Rotates the document key: derives a fresh key, re-seals the payload
  /// (version bump) and re-binds the sticky policy. Previously shared
  /// wrapped keys stop working for all *future* versions — the revocation
  /// mechanism for already-granted recipients.
  Status RotateDocumentKey(const std::string& doc_id);

  // ---- Guardian recovery of the master secret ----
  // Paper: "master secrets must be restorable in case of crash/loss of a
  // trusted cell".

  /// Shamir-splits the owner master key inside the TEE and sends one
  /// wrapped share to each guardian cell (any `threshold` restore it).
  Status EnrollGuardians(const std::vector<std::string>& guardian_cells,
                         int threshold);

  /// Guardian side: re-wraps the stored share of `owner` to
  /// `requester_cell` (invoked after the owner authenticates to the
  /// guardian's human out of band).
  Status ReleaseGuardianShare(const std::string& owner,
                              const std::string& requester_cell);

  /// True if this cell holds a guardian share for `owner`.
  bool HoldsGuardianShareFor(const std::string& owner) const;

  /// Recovering cell: consumes "recovery-share" messages (from
  /// TakeMessages), reconstructs the owner master inside the TEE,
  /// replaces the provisional master and re-derives the space keys.
  /// Returns the number of shares used.
  Result<int> CompleteRecovery(const std::vector<cloud::Message>& shares);

  // ---- Cross-principal approval ----

  /// Stores a document that *references another individual* (e.g. a photo
  /// with B in the frame): the document is created pending, unusable until
  /// the referenced cell approves. Sends an approval request.
  Result<std::string> ProposeDocumentReferencing(
      const std::string& referenced_cell, const std::string& title,
      const std::string& keywords, const Bytes& content,
      const policy::Policy& policy);

  /// Referenced side: answer an "approval-request" message.
  Status RespondToApproval(const cloud::Message& request, bool approve);

  /// Proposer side: applies "approval-response" messages — approved
  /// documents become usable, rejected ones are erased. Returns
  /// (approved, rejected).
  Result<std::pair<int, int>> ProcessApprovalResponses();

  // ---- Accountability ----

  policy::AuditLog& audit_log() { return *audit_; }

  /// Ships the sealed audit log to `recipient_cell` (typically the data
  /// originator), together with a wrapped copy of the audit key.
  Status PushAuditLog(const std::string& recipient_cell);

  /// Originator side: verifies + decrypts an audit push received in the
  /// inbox (topic "audit-log"). Returns the full journal record stream
  /// (policy decisions plus incident/attestation evidence).
  Result<std::vector<obs::AuditRecord>> VerifyAuditPush(
      const cloud::Message& message);

  // ---- Shared commons ----

  /// The cell's private contribution to an aggregate computation (e.g.
  /// yesterday's total consumption in watt-hours) — fed to
  /// tc::compute::SecureAggregation by the application.
  Result<int64_t> ProvideAggregateValue(const std::string& series,
                                        Timestamp t0, Timestamp t1);

 private:
  /// Registry handles resolved once per cell; hot path touches only the
  /// relaxed atomics inside.
  struct Metrics {
    Metrics();
    obs::Histogram& seal_us;
    obs::Histogram& unseal_us;
    obs::Counter& reads_allowed;
    obs::Counter& reads_denied;
    obs::Counter& incidents;
    obs::Counter& degraded_ms;  // cell.degraded_ms (wall time in degraded).
    /// Fleet-telemetry gauges (obs::kDegradedGaugeName /
    /// kOutboxDepthGaugeName): degraded-or-not and the outbox backlog —
    /// the per-cell state the TelemetryHub sums into its per-window
    /// degraded-cell and outbox-depth aggregates.
    obs::Gauge& degraded;
    obs::Gauge& outbox_depth;
  };

  TrustedCell(const Config& config, cloud::CloudInfrastructure* cloud,
              CellDirectory* directory, const Clock* clock);
  Status Init();

  std::string SpaceBlobId(const std::string& doc_id) const;
  std::string ManifestBlobId() const;
  Bytes DocumentAad(const std::string& doc_id, uint64_t version,
                    const Bytes& policy_hash) const;
  /// Sticky-policy MAC oracle bound to a document key inside the TEE.
  policy::StickyPolicy::MacFn StickyMac(const std::string& key_name);
  Status EnsureDocKey(const std::string& doc_id, const std::string& key_name);
  Result<DocumentMeta> LoadMeta(const std::string& doc_id);
  Status SaveMeta(const DocumentMeta& meta, bool is_new);
  /// Serializes + seals the manifest of own documents at `version`,
  /// substituting `override_meta` (when non-null) for its document —
  /// lets the atomic update publish a manifest that includes a meta not
  /// yet saved locally.
  Result<Bytes> BuildManifestBlob(uint64_t version,
                                  const DocumentMeta* override_meta);
  void RecordIncident(IncidentType type, const std::string& object_id,
                      const std::string& detail);
  Result<Bytes> FetchAndOpen(const DocumentMeta& meta);
  /// Idempotency token of a (blob, version) push — stable across retries,
  /// restarts and outbox drains, so the provider applies it at most once.
  std::string PushToken(const std::string& blob_id, uint64_t version) const;
  /// Pushes a sealed blob through the channel under its stable token.
  /// With resilient_sync, falls back to the outbox (returns OK and marks
  /// the cell degraded when the provider is unreachable — the write is
  /// locally durable and will drain). Without it, a transient failure is
  /// returned and the token also carries a digest of `sealed`, since the
  /// caller's next attempt reuses the version with new bytes.
  Status PushBlob(const std::string& blob_id, uint64_t version,
                  const Bytes& sealed);
  /// Fetches a blob, serving queued-but-unpushed blobs from the outbox
  /// first (read-your-writes while partitioned).
  Result<Bytes> PullBlob(const std::string& blob_id);
  void EnterDegraded();
  void ExitDegraded();

  Config config_;
  cloud::CloudInfrastructure* cloud_;
  CellDirectory* directory_;
  const Clock* clock_;

  std::unique_ptr<tee::TrustedExecutionEnvironment> tee_;
  std::unique_ptr<storage::FlashDevice> flash_;
  std::unique_ptr<storage::EncryptedPageTransform> transform_;
  std::unique_ptr<storage::LogStore> store_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<policy::AuditLog> audit_;
  std::unique_ptr<net::ResilientChannel> channel_;
  std::unique_ptr<net::Outbox> outbox_;  // resilient_sync only.
  bool degraded_ = false;
  obs::Stopwatch degraded_timer_;
  policy::DecisionPoint pdp_;

  // Document registry (rebuilt from the store at Init).
  std::map<std::string, uint64_t> doc_numbers_;
  std::map<uint64_t, std::string> number_to_doc_;
  std::set<std::string> seen_grant_ids_;
  std::vector<cloud::Message> pending_messages_;
  uint64_t next_doc_number_ = 1;
  uint64_t next_grant_number_ = 1;
  Metrics metrics_;
  CellStats stats_;
  std::vector<SecurityIncident> incidents_;
};

/// Convenience: a permissive owner policy (read/write/share, unlimited,
/// audit obligation) used by examples and tests as the base policy for own
/// documents.
policy::Policy MakeOwnerPolicy(const std::string& owner);

}  // namespace tc::cell

#endif  // TC_CELL_CELL_H_
