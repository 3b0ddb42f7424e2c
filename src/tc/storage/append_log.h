#ifndef TC_STORAGE_APPEND_LOG_H_
#define TC_STORAGE_APPEND_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstring>

#include "tc/sync/epoch.h"

namespace tc::storage {

/// Lock-free in-RAM append log — the tellstore log shape (PAPERS.md;
/// util/Log.hpp): a linked list of zero-initialized pages, each with an
/// atomic bump-allocated tail offset; every entry is a 4-byte atomic
/// header followed by its payload, 4-byte aligned.
///
/// Header encoding: (payload_size << 1) | seal_bit. Zero means "no entry
/// written here yet" (pages are zeroed, so a reader racing an in-flight
/// reservation sees 0 and knows to wait); a sealed (odd) header always
/// describes complete, immutable bytes. Writers reserve space with one
/// fetch_add, copy the payload, then publish the sealed header with a
/// release store. The one other header value is the even dead-zone mark:
/// when a page overflows, the writer whose add crossed the capacity
/// boundary stamps it on the unusable remainder of the page, so the
/// consumer can tell "skip to the next page" apart from "a writer is
/// mid-copy here, wait for the seal" — without the mark those states are
/// both header==0 and the consumer could skip (and lose) an entry that a
/// preempted writer had reserved but not yet sealed.
///
/// Page overflow is resolved without locks: every overflowing append
/// bumps the tail past capacity, and exactly the first one (the add that
/// crossed the boundary) stamps the dead zone, allocates the next page
/// and links it; the rest spin briefly on the next pointer and move on.
/// Oversized payloads get a dedicated page.
///
/// Consumption: a single consumer (the flash flusher, externally
/// serialized) walks entries in append order via Cursor and calls
/// RetireConsumed() to hand fully-consumed pages to an EpochManager, so
/// concurrent lock-free readers holding entry pointers are never pulled
/// out from under — reclamation waits for their epoch to drain.
class AppendLog {
 public:
  struct Page {
    std::atomic<Page*> next{nullptr};
    std::atomic<uint32_t> tail{0};
    uint32_t capacity = 0;
    uint8_t* data = nullptr;  // zeroed at allocation.
  };

  /// Position of one sealed entry; `payload` stays valid until the page
  /// is retired AND the holder's epoch guard exits.
  struct Entry {
    const uint8_t* payload = nullptr;
    uint32_t size = 0;
    Page* page = nullptr;
    uint32_t offset = 0;  // of the header within the page.
  };

  /// Consumer-side walk position (single consumer; see class comment).
  struct Cursor {
    Page* page = nullptr;
    uint32_t offset = 0;
  };

  explicit AppendLog(sync::EpochManager* epochs,
                     uint32_t page_capacity = 64 * 1024);
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Lock-free: reserves, copies `size` bytes, seals. Returns the sealed
  /// entry (never fails; memory exhaustion is fatal as everywhere else).
  Entry Append(const uint8_t* data, uint32_t size);

  /// Two-phase variant for callers that must publish side state (e.g. an
  /// index entry pointing at the payload) BEFORE the entry becomes
  /// consumable: reserves and copies but does not seal. The consumer's
  /// Peek blocks (spins) at an unsealed entry, so nothing past it — the
  /// entry itself, its page, later entries — can be consumed or retired
  /// until Seal. Every BeginAppend MUST be followed by Seal on the same
  /// thread, promptly and unconditionally.
  Entry BeginAppend(const uint8_t* data, uint32_t size);
  void Seal(const Entry& entry);

  /// Cursor at the oldest unconsumed entry.
  Cursor ConsumeBegin() const { return consume_; }

  /// Reads the entry at `cur` without logically consuming it, normalizing
  /// the cursor across page hops. Returns false at the current end of the
  /// log. If an entry is reserved but not yet sealed (a writer between
  /// fetch_add and publish), spins until it seals — that window is a few
  /// instructions.
  bool Peek(Cursor* cur, Entry* out) const;

  /// Advances `cur` past the entry it points at (Peek must have
  /// succeeded).
  void Advance(Cursor* cur) const;

  /// Commits consumption up to `cur`: pages fully behind it are unlinked
  /// from the consumer side and retired through the epoch manager.
  void RetireConsumed(const Cursor& cur);

  /// Appended-but-not-yet-consumed payload bytes (approximate under
  /// concurrency; exact at quiescence).
  uint64_t unconsumed_bytes() const {
    return appended_bytes_.load(std::memory_order_acquire) -
           consumed_bytes_.load(std::memory_order_acquire);
  }
  uint64_t entries_appended() const {
    return entries_.load(std::memory_order_relaxed);
  }
  uint64_t pages_allocated() const {
    return pages_allocated_.load(std::memory_order_relaxed);
  }
  uint64_t pages_retired() const {
    return pages_retired_.load(std::memory_order_relaxed);
  }

  /// Entry payload alignment/rounding, exposed for size accounting.
  static uint32_t Align4(uint32_t n) { return (n + 3u) & ~3u; }

 private:
  static Page* NewPage(uint32_t capacity);
  static void DeletePage(void* p);

  sync::EpochManager* epochs_;
  const uint32_t page_capacity_;
  Page* head_;                      // oldest non-retired page.
  std::atomic<Page*> tail_page_;    // append hint (walk next to be exact).
  Cursor consume_;                  // single-consumer state.
  std::atomic<uint64_t> appended_bytes_{0};
  std::atomic<uint64_t> consumed_bytes_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> pages_allocated_{0};
  std::atomic<uint64_t> pages_retired_{0};
};

}  // namespace tc::storage

#endif  // TC_STORAGE_APPEND_LOG_H_
