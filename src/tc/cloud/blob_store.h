#ifndef TC_CLOUD_BLOB_STORE_H_
#define TC_CLOUD_BLOB_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/cloud/txn.h"
#include "tc/sync/epoch.h"

namespace tc::cloud {

/// Versioned blob storage — the "highly available and resilient store for
/// all data outsourced by trusted cells". Every Put creates a new version;
/// history is retained, which is exactly what lets a *malicious* operator
/// mount rollback attacks (serve version n-1 as if it were current) and
/// what lets honest cells keep cheap snapshots.
///
/// The store is sharded over `shard_count` partitions (hash of the blob
/// id), modelling the horizontally partitioned store of a real provider
/// serving millions of cells. Writers serialize per shard behind a stripe
/// lock; READS ARE LOCK-FREE (PR 8): each shard's latest-version map is a
/// fixed bucket array of immutable-chain hash nodes, every blob's version
/// history is a newest-first linked list of immutable version nodes, and
/// Get/GetVersion/GetAtSnapshot/Exists/List walk them under an epoch guard
/// without ever touching a stripe. Retired nodes (Delete, MutateLatest)
/// are reclaimed through tc::sync::EpochManager once no reader can hold
/// them. Byte/blob accounting is per-shard atomics, merged on read.
/// Construct with `lock_free_reads = false` to restore stripe-locked reads
/// (the bench_e17 baseline).
///
/// MVCC: every version carries the sequence number of the commit that
/// created it (plain puts are single-write auto-commits). Snapshot() hands
/// out a SnapshotDescriptor; GetAtSnapshot() reads the newest version
/// whose commit is visible in a descriptor; CommitTxn() applies a
/// validated multi-key read/write set atomically — first-committer-wins
/// under a lock manager striped exactly like the shards (the involved
/// stripes are acquired in ascending index order, held across validation
/// and apply: two-phase, deadlock-free). A commit's sequence is published
/// to the snapshot horizon after all its writes are applied but BEFORE
/// the stripes are released, so cross-shard commits are never seen torn
/// AND anything observable as "latest" is already snapshot-visible — the
/// pairing that bounds first-committer-wins abort loops (a write that is
/// latest but not yet in fresh snapshots would make every conflicting
/// retry abort deterministically for as long as the committer is stalled).
///
/// With lock-free readers that invariant needs one extra bit: a reader no
/// longer serializes behind the stripe, so it could observe a new head
/// node after it is linked but before its sequence is published. Every
/// version node therefore carries a `published` flag, set (release) only
/// AFTER PublishSeqs and before the stripes drop; the lock-free latest
/// paths skip unpublished nodes. Hence: latest-visible (to any reader)
/// still implies snapshot-visible. Snapshot reads ignore the flag — a
/// descriptor can only contain a sequence PublishSeqs already processed,
/// and the commit_mu_ hand-off makes the node itself visible.
///
/// Lock ordering (audited for PR 8, satellite b): stripes are acquired
/// first, always in ascending shard index; commit_mu_ and txn_token_mu_
/// are both LEAF locks — taken only while stripes are held (PublishSeqs,
/// token record/replay) or entirely on their own (Snapshot), never nested
/// inside each other, and never the reverse order of a stripe. Lock-free
/// readers take no lock at all, so no read path can participate in an
/// inversion. There is no path that acquires a stripe while holding
/// commit_mu_ or txn_token_mu_.
class BlobStore {
 public:
  static constexpr size_t kDefaultShards = 16;
  static constexpr size_t kTokenHistory = 8192;  // Per shard / per store.
  static constexpr size_t kBucketsPerShard = 512;

  explicit BlobStore(size_t shard_count = kDefaultShards,
                     size_t token_history = kTokenHistory,
                     bool lock_free_reads = true);
  ~BlobStore();

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  /// Stores a new version of `id`; returns the version number (1-based).
  uint64_t Put(const std::string& id, const Bytes& data);

  /// Stores a batch of blobs, taking each shard lock at most once (the
  /// provider-side half of client-side write batching); returns the
  /// assigned versions in input order. Per-item idempotency: `tokens[i]`
  /// names the logical write (cell id + blob id + client sequence). An
  /// item whose token was already applied is NOT stored again — the
  /// version it got the first time is returned instead. This is what makes retries after a lost ack
  /// and network-level duplicates side-effect-free: the same logical write
  /// can reach the provider 0–N times and creates at most one version.
  /// Tokens live in per-shard tables (same striping as the blobs, same
  /// lock), bounded FIFO at `token_history` entries per shard — ample for
  /// retry windows, which are short by construction. A re-delivery that
  /// arrives AFTER its token was evicted is applied again as a fresh
  /// write: the documented bound is that it appends a duplicate version
  /// with identical bytes (the convergence audit — latest payload per
  /// blob — is unaffected), it never resurrects an older payload over a
  /// newer acked one within the token window.
  std::vector<uint64_t> PutBatchIdempotent(
      const std::vector<std::pair<std::string, Bytes>>& items,
      const std::vector<std::string>& tokens);

  // ---- Provider transactions (MVCC) ----

  /// Consistent snapshot horizon: all commits visible at this instant.
  SnapshotDescriptor Snapshot() const;

  /// Newest version of `id` whose commit is visible in `snap`; kNotFound
  /// if the blob has no visible version (absent, or created after the
  /// snapshot was taken). Lock-free.
  Result<SnapshotRead> GetAtSnapshot(const std::string& id,
                                     const SnapshotDescriptor& snap) const;

  /// Atomically validates and applies a multi-key transaction.
  ///
  /// Validation (first-committer-wins): every read must still observe the
  /// latest version it saw; every write's `base_version` must still be the
  /// latest version of its key (kBaseVersionAny skips the check). The
  /// first key that fails aborts the whole transaction with kAborted and
  /// no effect. On success all writes are applied under one commit
  /// sequence and each lands at exactly `base_version + 1`.
  ///
  /// Idempotency: the PR 5 token table, extended to whole transactions. A
  /// committed token's outcome (commit seq + assigned versions) is
  /// recorded in a store-level FIFO-bounded table; a re-delivered commit
  /// is answered with its original outcome (`replayed` set) without
  /// re-applying. Aborts are deliberately NOT recorded — an abort has no
  /// side effects, and the cell retries aborted transactions under the
  /// SAME token with a refreshed snapshot, which must be allowed to
  /// commit.
  TxnOutcome CommitTxn(const TxnRequest& req);

  /// Logical writes newly applied through PutBatchIdempotent (dedupe hits
  /// excluded). `versions_created == tokens_applied + txn_writes_applied`
  /// is the chaos suite's "no duplicate side-effects" invariant.
  uint64_t tokens_applied() const {
    return tokens_applied_.load(std::memory_order_relaxed);
  }
  /// Idempotent re-deliveries answered from a token table (no new version).
  uint64_t token_dedupe_hits() const {
    return token_dedupe_hits_.load(std::memory_order_relaxed);
  }

  /// Total versions ever created across all blobs (never decremented, not
  /// even by Delete) — the other half of the duplicate-side-effect check.
  uint64_t versions_created() const {
    return versions_created_.load(std::memory_order_relaxed);
  }

  uint64_t txns_committed() const {
    return txns_committed_.load(std::memory_order_relaxed);
  }
  uint64_t txns_aborted() const {
    return txns_aborted_.load(std::memory_order_relaxed);
  }
  /// Re-delivered commits answered from the txn-token table.
  uint64_t txn_replays() const {
    return txn_replays_.load(std::memory_order_relaxed);
  }
  /// Versions created by committed transactions (subset of
  /// versions_created).
  uint64_t txn_writes_applied() const {
    return txn_writes_applied_.load(std::memory_order_relaxed);
  }

  /// Latest version payload. Lock-free.
  Result<Bytes> Get(const std::string& id) const;

  /// Specific version payload. Lock-free.
  Result<Bytes> GetVersion(const std::string& id, uint64_t version) const;

  /// Latest version number (kNotFound if the blob does not exist).
  Result<uint64_t> LatestVersion(const std::string& id) const;

  bool Exists(const std::string& id) const;

  /// Removes a blob and all of its versions; every version's bytes are
  /// subtracted from the shard's byte accounting. Legacy administrative
  /// op, not MVCC-aware: snapshot readers see the blob vanish. A later Put
  /// of the same id restarts at version 1, as before.
  Status Delete(const std::string& id);

  /// Ids with the given prefix (listing is metadata the provider sees —
  /// part of why payloads must be encrypted). Merged across shards,
  /// returned in sorted order.
  std::vector<std::string> List(const std::string& prefix) const;

  size_t blob_count() const;
  uint64_t total_bytes() const;

  /// Exact recount of the bytes the accounting SHOULD hold: walks every
  /// live version node and sums payload sizes. O(data); meant for test
  /// invariants at quiescence (`AuditTotalBytes() == total_bytes()`), not
  /// for the serving path. Under concurrent writers the two are sampled
  /// at different instants and may legitimately differ.
  uint64_t AuditTotalBytes() const;

  /// In-place mutation of the latest version of `id` — used ONLY by the
  /// adversary to model provider-side tampering. Replaces the latest
  /// version node with the mutated copy under the shard lock (immutable
  /// nodes: lock-free readers may still be holding the old one, which is
  /// epoch-retired) and re-syncs byte accounting if the mutation resized
  /// the payload.
  Status MutateLatest(const std::string& id,
                      const std::function<void(Bytes&)>& mutator);

  size_t shard_count() const { return shards_.size(); }

  /// Shard an id maps to — stable for the lifetime of the store. Exposed so
  /// the infrastructure layer can keep per-shard adversary RNG streams
  /// aligned with the data partitioning.
  size_t ShardIndex(const std::string& id) const;

  /// Number of times a caller found its shard lock already held and had to
  /// wait (merged over shards). A cheap contention probe for the fleet
  /// benchmarks; monotonically increasing.
  uint64_t lock_contention() const;

 private:
  /// One stored version: payload + the commit that created it. Immutable
  /// after construction except for `published` (see class comment); the
  /// version history is a newest-first chain, so version numbers descend
  /// along `next` and commit_seq is strictly decreasing too (every append
  /// happens under the shard stripe with a freshly drawn sequence).
  struct VersionNode {
    const Bytes data;
    const uint64_t commit_seq;
    const uint64_t version;
    /// False only between head-link and PublishSeqs; latest-version
    /// readers skip unpublished nodes (latest-visible ⇒ snapshot-visible).
    std::atomic<bool> published{false};
    VersionNode* const next;  // Older version, or nullptr.
    VersionNode(Bytes d, uint64_t seq, uint64_t ver, VersionNode* nxt)
        : data(std::move(d)), commit_seq(seq), version(ver), next(nxt) {}
  };

  /// Hash node for one blob id. Never unlinked or freed before the store
  /// dies (Delete just nulls the head), so lock-free bucket walks need no
  /// guard for the node itself — only version chains are epoch-managed.
  struct BlobRec {
    const std::string id;
    std::atomic<VersionNode*> head{nullptr};  // Newest version.
    BlobRec* const next;  // Bucket chain; immutable after insertion.
    BlobRec(std::string i, BlobRec* nxt) : id(std::move(i)), next(nxt) {}
  };

  struct Shard {
    Shard() : buckets(kBucketsPerShard) {}
    mutable std::mutex mu;  // Serializes writers; readers never take it.
    mutable std::atomic<uint64_t> contention{0};
    std::vector<std::atomic<BlobRec*>> buckets;
    std::atomic<uint64_t> total_bytes{0};
    std::atomic<uint64_t> blob_count{0};
    /// Highest commit_seq applied to this shard. Written only under mu;
    /// atomic so Snapshot() can read it without taking the stripe.
    std::atomic<uint64_t> high_seq{0};
    // Idempotency-token table: token -> assigned version, FIFO-bounded.
    // The FIFO holds pointers to the map's keys (stable until erase), so a
    // token is stored exactly once.
    std::unordered_map<std::string, uint64_t> applied_tokens;  // guarded by mu.
    std::deque<const std::string*> token_fifo;                 // guarded by mu.
  };

  /// Recorded outcome of a committed transaction, replayed on token
  /// re-delivery.
  struct TxnTokenRec {
    uint64_t commit_seq = 0;
    std::vector<uint64_t> versions;
  };

  /// Locks `shard.mu`, counting the acquisition as contended if it blocks.
  std::unique_lock<std::mutex> LockShard(const Shard& shard) const;

  /// Stripe lock for a read path: no-op (empty lock) in lock-free mode,
  /// LockShard in the mutex-baseline mode.
  std::unique_lock<std::mutex> ReadLock(const Shard& shard) const;

  /// Makes `seqs` visible to future Snapshot() calls. Must be called
  /// exactly once for every sequence drawn from next_commit_seq_ (the
  /// contiguous base can only advance if no sequence is abandoned), after
  /// the corresponding writes are fully applied and while the stripe
  /// locks are still held (latest-visible must imply snapshot-visible).
  void PublishSeqs(const uint64_t* seqs, size_t n);

  size_t BucketIndex(const std::string& id) const;
  /// Lock-free lookup of the id's hash node (nullptr if never stored).
  BlobRec* FindRec(const Shard& shard, const std::string& id) const;
  /// Lookup-or-insert; caller holds the stripe.
  BlobRec* FindOrInsertRec(Shard& shard, const std::string& id);
  /// Appends one version under the stripe (node starts unpublished).
  /// Returns the new node; `*version_out` is its 1-based version.
  VersionNode* AppendVersionLocked(Shard& shard, const std::string& id,
                                   const Bytes& data, uint64_t seq,
                                   uint64_t* version_out);

  /// Latest version number of `id` (0 = absent). Caller holds the stripe,
  /// so no unpublished node can exist for this id.
  uint64_t LatestVersionLocked(const std::string& id) const;

  /// Deleter for a whole version chain (Delete retires the full history
  /// in one shot; MutateLatest retires single nodes via RetireObject).
  static void DeleteVersionChain(void* head);

  // Reclamation first: destroyed last, after no structure can retire into
  // it. Epoch guards protect version chains on the lock-free read paths.
  mutable sync::EpochManager epochs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  const size_t token_history_;
  const bool lock_free_reads_;
  std::atomic<uint64_t> tokens_applied_{0};
  std::atomic<uint64_t> token_dedupe_hits_{0};
  std::atomic<uint64_t> versions_created_{0};
  std::atomic<uint64_t> txns_committed_{0};
  std::atomic<uint64_t> txns_aborted_{0};
  std::atomic<uint64_t> txn_replays_{0};
  std::atomic<uint64_t> txn_writes_applied_{0};

  /// Commit-sequence allocator + published horizon. A drawn sequence is
  /// "in flight" until PublishSeqs; Snapshot() sees base_committed_ (all
  /// seqs <= it are committed) plus the out-of-order set above it.
  std::atomic<uint64_t> next_commit_seq_{1};
  mutable std::mutex commit_mu_;  // Leaf lock (see class comment).
  uint64_t base_committed_ = 0;           // guarded by commit_mu_.
  std::set<uint64_t> committed_above_;    // guarded by commit_mu_.

  /// Store-level txn-token table (a txn spans shards, so it cannot live in
  /// one stripe). Leaf lock: taken only while stripe locks are held or by
  /// itself, never the other way round.
  mutable std::mutex txn_token_mu_;
  std::unordered_map<std::string, TxnTokenRec> txn_tokens_;
  std::deque<const std::string*> txn_token_fifo_;
};

}  // namespace tc::cloud

#endif  // TC_CLOUD_BLOB_STORE_H_
