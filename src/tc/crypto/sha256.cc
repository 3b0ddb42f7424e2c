#include "tc/crypto/sha256.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tc::crypto {
namespace {

// The SHA-256 round constants are the first 32 bits of the fractional parts
// of the cube roots of the first 64 primes, and the initial state the same
// for square roots of the first 8 primes. We derive them numerically rather
// than transcribing 72 magic words; long-double precision leaves ~16 guard
// bits beyond the 32 we keep, and the FIPS test vectors in tests/crypto
// pin the result.
struct Constants {
  uint32_t k[64];
  uint32_t h0[8];
};

uint32_t FracBits(long double v) {
  long double frac = v - std::floor(v);
  return static_cast<uint32_t>(frac * 4294967296.0L);
}

Constants BuildConstants() {
  Constants c{};
  int primes[64];
  int count = 0;
  for (int n = 2; count < 64; ++n) {
    bool prime = true;
    for (int d = 2; d * d <= n; ++d) {
      if (n % d == 0) {
        prime = false;
        break;
      }
    }
    if (prime) primes[count++] = n;
  }
  for (int i = 0; i < 64; ++i) {
    c.k[i] = FracBits(cbrtl(static_cast<long double>(primes[i])));
  }
  for (int i = 0; i < 8; ++i) {
    c.h0[i] = FracBits(sqrtl(static_cast<long double>(primes[i])));
  }
  return c;
}

const Constants& GetConstants() {
  static const Constants kConstants = BuildConstants();
  return kConstants;
}

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace kernels {

void Sha256BlocksPortable(uint32_t state[8], const uint8_t* blocks,
                          size_t count) {
  const Constants& c = GetConstants();
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(blocks[4 * i]) << 24 |
             static_cast<uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], cc = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + c.k[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & cc) ^ (b & cc);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = cc;
      cc = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += cc;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

// The SHA-NI compress. The state lives as two vectors, ABEF and CDGH, the
// layout _mm_sha256rnds2_epu32 wants; each iteration of the group loop runs
// four rounds (two rnds2) and, from the fourth group on, finishes the next
// group's message schedule with msg1/msg2.
__attribute__((target("sha,sse4.1"))) void Sha256BlocksShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  const uint32_t* k = GetConstants().k;
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);      // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
    for (int g = 0; g < 16; ++g) {
      const __m128i cur = m[g & 3];
      __m128i msg = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g < 15) {
        __m128i& next = m[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g < 13) {
        m[(g - 1) & 3] = _mm_sha256msg1_epu32(m[(g - 1) & 3], cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);         // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);      // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);   // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);      // ABEF
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#else

void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* blocks,
                       size_t count) {
  Sha256BlocksPortable(state, blocks, count);  // Never dispatched here.
}

#endif

}  // namespace kernels

Sha256::Sha256(const kernels::Set& k) : blocks_(k.sha256_blocks) { Reset(); }

void Sha256::Reset() {
  const Constants& c = GetConstants();
  std::memcpy(h_, c.h0, sizeof(h_));
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(64 - buffer_len_, len);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) return;
    blocks_(h_, buffer_, 1);
    buffer_len_ = 0;
  }
  if (len >= 64) {
    blocks_(h_, data, len / 64);
    data += len & ~size_t{63};
    len &= 63;
  }
  std::memcpy(buffer_, data, len);
  buffer_len_ = len;
}

void Sha256::Update(const Bytes& data) {
  if (!data.empty()) Update(data.data(), data.size());
}

Bytes Sha256::Finish() {
  // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit
  // length — one or two final blocks.
  const uint64_t bit_len = total_len_ * 8;
  uint8_t tail[128] = {0};
  std::memcpy(tail, buffer_, buffer_len_);
  tail[buffer_len_] = 0x80;
  const size_t tail_len = buffer_len_ < 56 ? 64 : 128;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  blocks_(h_, tail, tail_len / 64);
  Bytes digest(kSha256DigestSize);
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Bytes Sha256Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256Hash2(const Bytes& a, const Bytes& b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

}  // namespace tc::crypto
