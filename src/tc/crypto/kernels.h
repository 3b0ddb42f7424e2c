#ifndef TC_CRYPTO_KERNELS_H_
#define TC_CRYPTO_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "tc/common/bytes.h"
#include "tc/common/result.h"

namespace tc::crypto {

class Aes;

/// Internal header: the block kernels under AesCtrCrypt and Sha256, and the
/// one-time CPUID dispatch between them. Library code never names a kernel;
/// it calls the public primitives, which run `Dispatched()`. Tests and the
/// E9 bench include this header to run the portable kernels (the oracle)
/// beside the hardware ones.
namespace kernels {

/// XORs the AES-CTR keystream for `nonce` (12 bytes, block counter from 0)
/// into `len` bytes of `in`, writing `out` (which may alias `in`).
using CtrFn = void (*)(const Aes& aes, const uint8_t* nonce, const uint8_t* in,
                       uint8_t* out, size_t len);

/// Runs the SHA-256 compression function over `count` 64-byte blocks.
using Sha256BlocksFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                size_t count);

/// The portable byte-wise paths. Run on every CPU; the oracle for the
/// hardware kernels.
void CtrPortable(const Aes& aes, const uint8_t* nonce, const uint8_t* in,
                 uint8_t* out, size_t len);
void Sha256BlocksPortable(uint32_t state[8], const uint8_t* blocks,
                          size_t count);

/// x86 hardware kernels: AES-NI CTR with four blocks in flight, and the
/// SHA-NI compress. Call only when the matching Has*() is true.
void CtrAesNi(const Aes& aes, const uint8_t* nonce, const uint8_t* in,
              uint8_t* out, size_t len);
void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* blocks,
                       size_t count);

/// CPUID probes (always false off x86).
bool HasAesNi();
bool HasShaNi();

struct Set {
  const char* aes_name;
  CtrFn ctr;
  const char* sha256_name;
  Sha256BlocksFn sha256_blocks;
};

/// The portable kernels only.
const Set& Portable();

/// The fastest kernels this CPU supports, chosen once by CPUID. Every
/// public tc::crypto primitive runs these.
const Set& Dispatched();

/// AeadSeal / AeadOpen (aead.h) on an explicit kernel set, key derivation
/// and MAC included, so a caller can time or cross-check the whole AEAD on
/// the portable path.
Result<Bytes> AeadSealWith(const Set& k, const Bytes& key, const Bytes& nonce,
                           const Bytes& aad, const Bytes& plaintext);
Result<Bytes> AeadOpenWith(const Set& k, const Bytes& key, const Bytes& nonce,
                           const Bytes& aad, const Bytes& sealed);

}  // namespace kernels
}  // namespace tc::crypto

#endif  // TC_CRYPTO_KERNELS_H_
