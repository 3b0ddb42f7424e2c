#include "tc/crypto/aes_ctr.h"

#include <algorithm>
#include <cstring>

#include "tc/crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tc::crypto {
namespace kernels {

void CtrPortable(const Aes& aes, const uint8_t* nonce, const uint8_t* in,
                 uint8_t* out, size_t len) {
  uint8_t counter_block[kAesBlockSize];
  uint8_t keystream[kAesBlockSize];
  std::memcpy(counter_block, nonce, kCtrNonceSize);

  uint32_t counter = 0;
  size_t offset = 0;
  while (offset < len) {
    counter_block[12] = static_cast<uint8_t>(counter >> 24);
    counter_block[13] = static_cast<uint8_t>(counter >> 16);
    counter_block[14] = static_cast<uint8_t>(counter >> 8);
    counter_block[15] = static_cast<uint8_t>(counter);
    aes.EncryptBlock(counter_block, keystream);
    size_t n = std::min(len - offset, kAesBlockSize);
    for (size_t i = 0; i < n; ++i) {
      out[offset + i] = in[offset + i] ^ keystream[i];
    }
    offset += n;
    ++counter;
  }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

constexpr int kLanes = 4;  // Counter blocks in flight per iteration.

// Counter block `counter` of the stream: nonce(12) || big-endian counter.
__attribute__((target("aes,sse4.1"))) inline __m128i CounterBlock(
    __m128i nonce_block, uint32_t counter) {
  return _mm_insert_epi32(nonce_block,
                          static_cast<int>(__builtin_bswap32(counter)), 3);
}

}  // namespace

__attribute__((target("aes,sse4.1"))) void CtrAesNi(const Aes& aes,
                                                    const uint8_t* nonce,
                                                    const uint8_t* in,
                                                    uint8_t* out, size_t len) {
  // The schedule holds big-endian words; AES-NI wants the round key bytes
  // in state order, so byte-swap each 32-bit lane once.
  const __m128i kWordSwap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  const int rounds = aes.rounds();
  __m128i rk[15];
  for (int r = 0; r <= rounds; ++r) {
    rk[r] = _mm_shuffle_epi8(
        _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(aes.round_keys() + 4 * r)),
        kWordSwap);
  }
  uint8_t nonce_bytes[kAesBlockSize] = {0};
  std::memcpy(nonce_bytes, nonce, kCtrNonceSize);
  const __m128i nonce_block =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nonce_bytes));

  uint32_t counter = 0;
  size_t offset = 0;
  for (; len - offset >= kLanes * kAesBlockSize;
       offset += kLanes * kAesBlockSize) {
    __m128i b[kLanes];
    for (int i = 0; i < kLanes; ++i) {
      b[i] = _mm_xor_si128(CounterBlock(nonce_block, counter++), rk[0]);
    }
    for (int r = 1; r < rounds; ++r) {
      for (int i = 0; i < kLanes; ++i) b[i] = _mm_aesenc_si128(b[i], rk[r]);
    }
    for (int i = 0; i < kLanes; ++i) {
      b[i] = _mm_aesenclast_si128(b[i], rk[rounds]);
      const size_t at = offset + i * kAesBlockSize;
      __m128i data = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + at));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + at),
                       _mm_xor_si128(data, b[i]));
    }
  }
  for (; offset < len; offset += kAesBlockSize) {
    __m128i b = _mm_xor_si128(CounterBlock(nonce_block, counter++), rk[0]);
    for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[rounds]);
    const size_t n = std::min(len - offset, kAesBlockSize);
    uint8_t block[kAesBlockSize] = {0};
    std::memcpy(block, in + offset, n);
    b = _mm_xor_si128(b, _mm_loadu_si128(reinterpret_cast<__m128i*>(block)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(block), b);
    std::memcpy(out + offset, block, n);
  }
}

#else

void CtrAesNi(const Aes& aes, const uint8_t* nonce, const uint8_t* in,
              uint8_t* out, size_t len) {
  CtrPortable(aes, nonce, in, out, len);  // Never dispatched here.
}

#endif

}  // namespace kernels

Result<Bytes> AesCtrCrypt(const Bytes& key, const Bytes& nonce,
                          const Bytes& input) {
  if (nonce.size() != kCtrNonceSize) {
    return Status::InvalidArgument("CTR nonce must be 12 bytes");
  }
  TC_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  Bytes out(input.size());
  kernels::Dispatched().ctr(aes, nonce.data(), input.data(), out.data(),
                            input.size());
  return out;
}

}  // namespace tc::crypto
