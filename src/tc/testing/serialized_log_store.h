#ifndef TC_TESTING_SERIALIZED_LOG_STORE_H_
#define TC_TESTING_SERIALIZED_LOG_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/storage/log_store.h"

namespace tc::testing {

/// The mutex baseline of the lock-free LogStore: every operation runs
/// behind one store-wide mutex, the shape the store had before its
/// lock-free hot path. Lives here, outside the production class, so
/// bench_e17_lockfree can measure what the atomic append buys and
/// lockfree_test can check both shapes agree.
class SerializedLogStore {
 public:
  /// `store` is not owned and must outlive the wrapper.
  explicit SerializedLogStore(storage::LogStore* store) : store_(store) {}

  Status Put(const std::string& key, const Bytes& value) {
    std::lock_guard<std::mutex> lock(mu_);
    return store_->Put(key, value);
  }
  Result<Bytes> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return store_->Get(key);
  }
  Result<uint64_t> CountLive() {
    std::lock_guard<std::mutex> lock(mu_);
    return store_->CountLive();
  }

 private:
  storage::LogStore* store_;
  std::mutex mu_;
};

}  // namespace tc::testing

#endif  // TC_TESTING_SERIALIZED_LOG_STORE_H_
