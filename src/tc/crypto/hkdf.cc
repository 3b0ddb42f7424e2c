#include "tc/crypto/hkdf.h"

#include "tc/common/macros.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/sha256.h"

namespace tc::crypto {

Bytes HkdfExtract(const Bytes& input_key, const Bytes& salt,
                  const kernels::Set& k) {
  HmacSha256Stream mac(salt.empty() ? Bytes(kSha256DigestSize, 0) : salt, k);
  mac.Update(input_key);
  return mac.Finish();
}

Bytes HkdfExpand(const Bytes& prk, std::string_view info, size_t length,
                 const kernels::Set& k) {
  TC_CHECK(length <= 255 * kSha256DigestSize);
  Bytes okm;
  Bytes t;
  uint8_t counter = 1;
  while (okm.size() < length) {
    HmacSha256Stream mac(prk, k);
    mac.Update(t);
    mac.Update(reinterpret_cast<const uint8_t*>(info.data()), info.size());
    mac.Update(&counter, 1);
    ++counter;
    t = mac.Finish();
    Append(okm, t);
  }
  okm.resize(length);
  return okm;
}

Bytes HkdfSha256(const Bytes& input_key, const Bytes& salt,
                 std::string_view info, size_t length) {
  return HkdfExpand(HkdfExtract(input_key, salt), info, length);
}

Bytes DeriveKey(const Bytes& parent, std::string_view label, size_t length) {
  return HkdfSha256(parent, /*salt=*/{}, label, length);
}

}  // namespace tc::crypto
