#include "tc/crypto/hmac.h"

#include <algorithm>

namespace tc::crypto {

HmacSha256Stream::HmacSha256Stream(const Bytes& key, const kernels::Set& k)
    : inner_(k), outer_(k) {
  constexpr size_t kBlockSize = 64;
  uint8_t block[kBlockSize] = {0};
  if (key.size() > kBlockSize) {
    Sha256 h(k);
    h.Update(key);
    Bytes digest = h.Finish();
    std::copy(digest.begin(), digest.end(), block);
  } else {
    std::copy(key.begin(), key.end(), block);
  }
  uint8_t pad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) pad[i] = block[i] ^ 0x36;
  inner_.Update(pad, kBlockSize);
  for (size_t i = 0; i < kBlockSize; ++i) pad[i] = block[i] ^ 0x5c;
  outer_.Update(pad, kBlockSize);
}

Bytes HmacSha256Stream::Finish() {
  outer_.Update(inner_.Finish());
  return outer_.Finish();
}

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  HmacSha256Stream mac(key);
  mac.Update(message);
  return mac.Finish();
}

bool HmacVerify(const Bytes& key, const Bytes& message, const Bytes& tag) {
  return ConstantTimeEqual(HmacSha256(key, message), tag);
}

}  // namespace tc::crypto
