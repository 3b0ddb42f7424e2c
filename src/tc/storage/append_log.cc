#include "tc/storage/append_log.h"

#include <algorithm>
#include <thread>

#include "tc/common/result.h"

namespace tc::storage {

namespace {

std::atomic<uint32_t>* HeaderAt(uint8_t* data, uint32_t offset) {
  return reinterpret_cast<std::atomic<uint32_t>*>(data + offset);
}

static_assert(sizeof(std::atomic<uint32_t>) == 4,
              "entry headers must be exactly 4 bytes");

constexpr uint32_t kHeaderBytes = 4;
constexpr uint32_t kSealBit = 1;
/// Even (unsealed) and nonzero: stamped on the unusable remainder of an
/// overflowed page so the consumer can distinguish it from a reservation
/// whose writer is still mid-copy (header 0). See the class comment.
constexpr uint32_t kDeadZoneMark = 2;

}  // namespace

AppendLog::AppendLog(sync::EpochManager* epochs, uint32_t page_capacity)
    : epochs_(epochs),
      page_capacity_(Align4(page_capacity < 64 ? 64 : page_capacity)) {
  TC_CHECK(std::atomic<uint32_t>{}.is_lock_free());
  head_ = NewPage(page_capacity_);
  tail_page_.store(head_, std::memory_order_release);
  consume_ = Cursor{head_, 0};
  pages_allocated_.fetch_add(1, std::memory_order_relaxed);
}

AppendLog::~AppendLog() {
  Page* p = head_;
  while (p != nullptr) {
    Page* next = p->next.load(std::memory_order_relaxed);
    DeletePage(p);
    p = next;
  }
}

AppendLog::Page* AppendLog::NewPage(uint32_t capacity) {
  Page* p = new Page();
  p->capacity = capacity;
  p->data = new uint8_t[capacity]();  // Zeroed: header 0 == "no entry".
  return p;
}

void AppendLog::DeletePage(void* opaque) {
  Page* p = static_cast<Page*>(opaque);
  delete[] p->data;
  delete p;
}

AppendLog::Entry AppendLog::Append(const uint8_t* data, uint32_t size) {
  Entry entry = BeginAppend(data, size);
  Seal(entry);
  return entry;
}

AppendLog::Entry AppendLog::BeginAppend(const uint8_t* data, uint32_t size) {
  const uint32_t need = kHeaderBytes + Align4(size);
  Page* p = tail_page_.load(std::memory_order_acquire);
  for (;;) {
    uint32_t old = p->tail.fetch_add(need, std::memory_order_acq_rel);
    if (old + need <= p->capacity) {
      if (size > 0) std::memcpy(p->data + old + kHeaderBytes, data, size);
      return Entry{p->data + old + kHeaderBytes, size, p, old};
    }
    // Overflow. The add that crossed the capacity boundary — exactly one
    // per page, since the tail only grows — stamps the dead zone,
    // allocates and links the next page; everyone else waits the few
    // instructions that takes.
    if (old <= p->capacity) {
      if (old + kHeaderBytes <= p->capacity) {
        // The consumer must not mistake the dead remainder for an entry
        // some writer is still copying: mark it before linking the next
        // page, so by the time the consumer can hop it is stamped.
        HeaderAt(p->data, old)
            ->store(kDeadZoneMark, std::memory_order_release);
      }
      Page* np = NewPage(std::max(page_capacity_, need));
      pages_allocated_.fetch_add(1, std::memory_order_relaxed);
      // Ordering is load-bearing for reclamation: tail_page_ must move OFF
      // this page before next is linked. The consumer can only hop past
      // (and then retire) a page via next, so advancing the global hint
      // first guarantees that by the time the page is retirable, no new
      // epoch pin can reach it through tail_page_ — and any thread that
      // read the old tail_page_ value pinned its epoch before the retire,
      // which is exactly what epoch reclamation protects. (The CAS cannot
      // fail: only this page's unique first overflower moves the hint off
      // this page.)
      Page* expected = p;
      tail_page_.compare_exchange_strong(expected, np,
                                         std::memory_order_acq_rel);
      p->next.store(np, std::memory_order_release);
      p = np;
    } else {
      Page* next = p->next.load(std::memory_order_acquire);
      while (next == nullptr) {
        std::this_thread::yield();
        next = p->next.load(std::memory_order_acquire);
      }
      p = next;
    }
  }
}

void AppendLog::Seal(const Entry& entry) {
  // Publish after the payload: a sealed header is a complete entry.
  HeaderAt(entry.page->data, entry.offset)
      ->store((entry.size << 1) | kSealBit, std::memory_order_release);
  appended_bytes_.fetch_add(entry.size, std::memory_order_acq_rel);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

bool AppendLog::Peek(Cursor* cur, Entry* out) const {
  for (;;) {
    Page* p = cur->page;
    const uint32_t tail = p->tail.load(std::memory_order_acquire);
    const uint32_t limit = std::min(tail, p->capacity);
    if (cur->offset + kHeaderBytes <= limit) {
      uint32_t hdr =
          HeaderAt(p->data, cur->offset)->load(std::memory_order_acquire);
      // The cursor only ever lands on reservation boundaries, so a zero
      // header here is a writer between fetch_add and Seal — or the dead
      // zone of a just-overflowed page an instant before its stamp. Both
      // resolve in a few instructions; wait, don't guess (guessing "dead
      // zone" for a mid-copy entry would skip — lose — that entry).
      while (hdr == 0) {
        std::this_thread::yield();
        hdr = HeaderAt(p->data, cur->offset)->load(std::memory_order_acquire);
      }
      if (hdr & kSealBit) {
        out->size = hdr >> 1;
        out->payload = p->data + cur->offset + kHeaderBytes;
        out->page = p;
        out->offset = cur->offset;
        return true;
      }
      // kDeadZoneMark: the rest of this page is unusable — hop below.
    } else if (tail <= p->capacity) {
      return false;  // True end of the log (so far).
    }
    // Page overflowed: the crossing writer links `next`; wait it out.
    Page* next = p->next.load(std::memory_order_acquire);
    while (next == nullptr) {
      std::this_thread::yield();
      next = p->next.load(std::memory_order_acquire);
    }
    cur->page = next;
    cur->offset = 0;
  }
}

void AppendLog::Advance(Cursor* cur) const {
  uint32_t hdr =
      HeaderAt(cur->page->data, cur->offset)->load(std::memory_order_acquire);
  cur->offset += kHeaderBytes + Align4(hdr >> 1);
}

void AppendLog::RetireConsumed(const Cursor& cur) {
  uint64_t consumed = 0;
  Cursor walk = consume_;
  while (walk.page != cur.page || walk.offset != cur.offset) {
    Entry e;
    if (!Peek(&walk, &e)) break;  // Defensive: cur should be reachable.
    if (walk.page == cur.page && walk.offset == cur.offset) break;
    consumed += e.size;
    Advance(&walk);
  }
  consumed_bytes_.fetch_add(consumed, std::memory_order_acq_rel);
  while (head_ != cur.page) {
    Page* next = head_->next.load(std::memory_order_acquire);
    TC_CHECK(next != nullptr);
    epochs_->Retire(head_, &AppendLog::DeletePage);
    pages_retired_.fetch_add(1, std::memory_order_relaxed);
    head_ = next;
  }
  consume_ = cur;
}

}  // namespace tc::storage
