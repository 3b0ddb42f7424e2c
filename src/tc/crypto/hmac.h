#ifndef TC_CRYPTO_HMAC_H_
#define TC_CRYPTO_HMAC_H_

#include "tc/common/bytes.h"
#include "tc/crypto/sha256.h"

namespace tc::crypto {

/// HMAC-SHA256 (RFC 2104). Keys of any length are accepted (hashed down if
/// longer than the 64-byte block size).
Bytes HmacSha256(const Bytes& key, const Bytes& message);

/// Verifies a tag in constant time.
bool HmacVerify(const Bytes& key, const Bytes& message, const Bytes& tag);

/// Incremental HMAC-SHA256: the message is absorbed in any number of
/// pieces, so a caller MACs a concatenation without building it.
class HmacSha256Stream {
 public:
  explicit HmacSha256Stream(const Bytes& key,
                            const kernels::Set& k = kernels::Dispatched());

  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const Bytes& data) { inner_.Update(data); }

  /// The 32-byte tag. The object must not be used afterwards.
  Bytes Finish();

 private:
  Sha256 inner_;
  Sha256 outer_;
};

}  // namespace tc::crypto

#endif  // TC_CRYPTO_HMAC_H_
