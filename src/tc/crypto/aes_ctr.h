#ifndef TC_CRYPTO_AES_CTR_H_
#define TC_CRYPTO_AES_CTR_H_

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/crypto/aes.h"

namespace tc::crypto {

inline constexpr size_t kCtrNonceSize = 12;

/// AES-CTR keystream cipher. The 16-byte counter block is
/// nonce(12) || big-endian block counter(4); encryption and decryption are
/// the same operation. The keystream comes from the AES-NI kernel where
/// the CPU has one and from the portable Aes::EncryptBlock otherwise
/// (kernels.h); the output is the same either way.
///
/// CTR alone provides no integrity — library code always uses it through
/// the AEAD wrapper (aead.h) except where a page-level MAC is applied
/// separately (storage engine).
Result<Bytes> AesCtrCrypt(const Bytes& key, const Bytes& nonce,
                          const Bytes& input);

}  // namespace tc::crypto

#endif  // TC_CRYPTO_AES_CTR_H_
