#ifndef TC_CRYPTO_HKDF_H_
#define TC_CRYPTO_HKDF_H_

#include <string_view>

#include "tc/common/bytes.h"
#include "tc/crypto/kernels.h"

namespace tc::crypto {

/// HKDF-SHA256 (RFC 5869). Every derived key in the system — per-document
/// data keys, sharing wrap keys, the TEE's key hierarchy — comes from this
/// function, so key-separation arguments reduce to distinct `info` labels.
Bytes HkdfSha256(const Bytes& input_key, const Bytes& salt,
                 std::string_view info, size_t length);

/// The two HKDF steps, for callers that derive several keys from one
/// input: Extract once, then Expand per label. An empty `salt` means 32
/// zero bytes, as in HkdfSha256.
Bytes HkdfExtract(const Bytes& input_key, const Bytes& salt,
                  const kernels::Set& k = kernels::Dispatched());
Bytes HkdfExpand(const Bytes& prk, std::string_view info, size_t length,
                 const kernels::Set& k = kernels::Dispatched());

/// Convenience for deriving from a parent key with a textual label.
Bytes DeriveKey(const Bytes& parent, std::string_view label,
                size_t length = 32);

}  // namespace tc::crypto

#endif  // TC_CRYPTO_HKDF_H_
