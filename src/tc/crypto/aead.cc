#include "tc/crypto/aead.h"

#include <algorithm>

#include "tc/crypto/aes.h"
#include "tc/crypto/hkdf.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/kernels.h"

namespace tc::crypto {
namespace {

struct Subkeys {
  Aes enc;
  Bytes mac;
};

// DeriveKey(key, "tc.aead.enc") and DeriveKey(key, "tc.aead.mac"), sharing
// one HKDF extract.
Result<Subkeys> DeriveSubkeys(const kernels::Set& k, const Bytes& key) {
  Bytes prk = HkdfExtract(key, /*salt=*/{}, k);
  TC_ASSIGN_OR_RETURN(Aes enc,
                      Aes::Create(HkdfExpand(prk, "tc.aead.enc", 32, k)));
  return Subkeys{enc, HkdfExpand(prk, "tc.aead.mac", 32, k)};
}

// HMAC over nonce || u64le(aad_len) || aad || ciphertext, streamed.
Bytes Tag(const kernels::Set& k, const Bytes& mac_key, const Bytes& nonce,
          const Bytes& aad, const uint8_t* ciphertext, size_t len) {
  HmacSha256Stream mac(mac_key, k);
  mac.Update(nonce);
  uint8_t aad_len[8];
  for (int i = 0; i < 8; ++i) {
    aad_len[i] = static_cast<uint8_t>(uint64_t{aad.size()} >> (8 * i));
  }
  mac.Update(aad_len, sizeof(aad_len));
  mac.Update(aad);
  mac.Update(ciphertext, len);
  return mac.Finish();
}

}  // namespace

namespace kernels {

Result<Bytes> AeadSealWith(const Set& k, const Bytes& key, const Bytes& nonce,
                           const Bytes& aad, const Bytes& plaintext) {
  if (nonce.size() != kAeadNonceSize) {
    return Status::InvalidArgument("AEAD nonce must be 12 bytes");
  }
  TC_ASSIGN_OR_RETURN(Subkeys sub, DeriveSubkeys(k, key));
  const size_t n = plaintext.size();
  Bytes sealed(n + kAeadTagSize);
  k.ctr(sub.enc, nonce.data(), plaintext.data(), sealed.data(), n);
  Bytes tag = Tag(k, sub.mac, nonce, aad, sealed.data(), n);
  std::copy(tag.begin(), tag.end(), sealed.begin() + n);
  return sealed;
}

Result<Bytes> AeadOpenWith(const Set& k, const Bytes& key, const Bytes& nonce,
                           const Bytes& aad, const Bytes& sealed) {
  if (nonce.size() != kAeadNonceSize) {
    return Status::InvalidArgument("AEAD nonce must be 12 bytes");
  }
  if (sealed.size() < kAeadTagSize) {
    return Status::IntegrityViolation("sealed blob shorter than tag");
  }
  const size_t n = sealed.size() - kAeadTagSize;
  TC_ASSIGN_OR_RETURN(Subkeys sub, DeriveSubkeys(k, key));
  Bytes expected = Tag(k, sub.mac, nonce, aad, sealed.data(), n);
  // Constant-time compare against the tag in place.
  uint8_t diff = 0;
  for (size_t i = 0; i < kAeadTagSize; ++i) diff |= expected[i] ^ sealed[n + i];
  if (diff != 0) return Status::IntegrityViolation("AEAD tag mismatch");
  Bytes plaintext(n);
  k.ctr(sub.enc, nonce.data(), sealed.data(), plaintext.data(), n);
  return plaintext;
}

}  // namespace kernels

Result<Bytes> AeadSeal(const Bytes& key, const Bytes& nonce, const Bytes& aad,
                       const Bytes& plaintext) {
  return kernels::AeadSealWith(kernels::Dispatched(), key, nonce, aad,
                               plaintext);
}

Result<Bytes> AeadOpen(const Bytes& key, const Bytes& nonce, const Bytes& aad,
                       const Bytes& sealed) {
  return kernels::AeadOpenWith(kernels::Dispatched(), key, nonce, aad, sealed);
}

}  // namespace tc::crypto
