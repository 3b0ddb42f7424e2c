#ifndef TC_CRYPTO_SHA256_H_
#define TC_CRYPTO_SHA256_H_

#include <cstdint>

#include "tc/common/bytes.h"
#include "tc/crypto/kernels.h"

namespace tc::crypto {

inline constexpr size_t kSha256DigestSize = 32;

/// Incremental SHA-256 (FIPS 180-4).
///
/// This is the project's only hash; everything — Merkle trees, HMAC, audit
/// chains, content addressing in the cloud blob store — is built on it.
/// Like the rest of tc::crypto it is a clean-room educational
/// implementation: correct (validated against the FIPS test vectors in
/// tests/crypto) but not hardened against side channels.
///
/// The compression function runs on the SHA-NI kernel where the CPU has
/// one and on the portable C++ rounds otherwise (kernels.h); both give the
/// same digest, and full input blocks are hashed in place, not copied
/// through the block buffer.
class Sha256 {
 public:
  explicit Sha256(const kernels::Set& k = kernels::Dispatched());

  /// Absorbs more input. May be called any number of times.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data);

  /// Completes the computation and returns the 32-byte digest. The object
  /// must not be reused afterwards without calling Reset().
  Bytes Finish();

  /// Returns the object to its freshly-constructed state.
  void Reset();

 private:
  kernels::Sha256BlocksFn blocks_;
  uint32_t h_[8];
  uint8_t buffer_[64];
  size_t buffer_len_;
  uint64_t total_len_;
};

/// One-shot convenience: SHA-256(data).
Bytes Sha256Hash(const Bytes& data);

/// One-shot over the concatenation a || b (common for hash chaining).
Bytes Sha256Hash2(const Bytes& a, const Bytes& b);

}  // namespace tc::crypto

#endif  // TC_CRYPTO_SHA256_H_
