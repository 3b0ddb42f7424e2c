#ifndef TC_TESTING_STRIPE_LOCKED_BLOB_STORE_H_
#define TC_TESTING_STRIPE_LOCKED_BLOB_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "tc/cloud/blob_store.h"
#include "tc/common/bytes.h"
#include "tc/common/result.h"

namespace tc::testing {

/// The stripe-locked baseline of the lock-free BlobStore read path: one
/// mutex per shard, picked by ShardIndex(id) and held around Put and Get,
/// so a reader queues behind any writer of its shard, the shape the store
/// had before its lock-free reads. Lives here, outside the production
/// class, so bench_e17_lockfree can measure what lock-free reads buy and
/// lockfree_test can check both shapes agree. Each Put also takes the
/// store's own (then uncontended) shard lock inside this one.
class StripeLockedBlobStore {
 public:
  /// `store` is not owned and must outlive the wrapper.
  explicit StripeLockedBlobStore(cloud::BlobStore* store)
      : store_(store),
        stripes_(std::make_unique<std::mutex[]>(store->shard_count())) {}

  uint64_t Put(const std::string& id, const Bytes& data) {
    std::lock_guard<std::mutex> lock(Stripe(id));
    return store_->Put(id, data);
  }
  Result<Bytes> Get(const std::string& id) {
    std::lock_guard<std::mutex> lock(Stripe(id));
    return store_->Get(id);
  }

 private:
  std::mutex& Stripe(const std::string& id) {
    return stripes_[store_->ShardIndex(id)];
  }

  cloud::BlobStore* store_;
  std::unique_ptr<std::mutex[]> stripes_;
};

}  // namespace tc::testing

#endif  // TC_TESTING_STRIPE_LOCKED_BLOB_STORE_H_
