#ifndef TC_CRYPTO_AES_H_
#define TC_CRYPTO_AES_H_

#include <cstdint>

#include "tc/common/bytes.h"
#include "tc/common/result.h"

namespace tc::crypto {

inline constexpr size_t kAesBlockSize = 16;

/// AES block cipher (FIPS 197), supporting 128- and 256-bit keys.
///
/// The S-box is derived at start-up from the GF(2^8) inverse + affine
/// transform instead of being transcribed, and the implementation is pinned
/// by the FIPS-197 vectors in tests/crypto. These block functions are the
/// portable path: byte-wise S-box lookups, so not cache-timing resistant —
/// acceptable for a simulated TEE, documented as such. Bulk encryption
/// (AesCtrCrypt) runs the AES-NI kernel instead where the CPU has one; that
/// kernel is table-free and reuses this key schedule (kernels.h).
class Aes {
 public:
  /// Expands the key schedule. `key` must be 16 or 32 bytes.
  static Result<Aes> Create(const Bytes& key);

  /// Encrypts exactly one 16-byte block, `out` may alias `in`.
  void EncryptBlock(const uint8_t in[kAesBlockSize],
                    uint8_t out[kAesBlockSize]) const;

  /// Decrypts exactly one 16-byte block.
  void DecryptBlock(const uint8_t in[kAesBlockSize],
                    uint8_t out[kAesBlockSize]) const;

  int rounds() const { return rounds_; }

  /// The expanded encryption key schedule: 4 * (rounds() + 1) words, each
  /// the big-endian reading of 4 round-key bytes.
  const uint32_t* round_keys() const { return round_keys_; }

 private:
  Aes() = default;
  uint32_t round_keys_[60];  // Up to 15 round keys of 4 words (AES-256).
  int rounds_ = 0;
};

}  // namespace tc::crypto

#endif  // TC_CRYPTO_AES_H_
