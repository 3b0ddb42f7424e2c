// Hardware crypto kernels vs the portable oracle.
//
// The portable byte-wise AES and C++ SHA-256 rounds are pinned by the
// FIPS/NIST vectors in crypto_test; here every hardware kernel this CPU
// supports is checked against them on random inputs. The cases that need a
// kernel the CPU lacks skip with the reason printed, so a portable-only
// host shows up as skips rather than as green.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "tc/common/rng.h"
#include "tc/crypto/aes.h"
#include "tc/crypto/aes_ctr.h"
#include "tc/crypto/hkdf.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/kernels.h"
#include "tc/crypto/sha256.h"

namespace tc::crypto {
namespace {

TEST(CryptoKernelsTest, ReportsDispatch) {
  const kernels::Set& k = kernels::Dispatched();
  std::printf("crypto kernels: aes-ctr=%s sha256=%s\n", k.aes_name,
              k.sha256_name);
  EXPECT_EQ(k.ctr == kernels::CtrAesNi, kernels::HasAesNi());
  EXPECT_EQ(k.sha256_blocks == kernels::Sha256BlocksShaNi,
            kernels::HasShaNi());
}

TEST(CryptoKernelsTest, AesNiCtrMatchesPortable) {
  if (!kernels::HasAesNi()) GTEST_SKIP() << "CPU has no AES-NI";
  Rng rng(0xae5);
  for (size_t len = 0; len <= 1100; ++len) {
    Bytes key = rng.NextBytes(len % 2 == 0 ? 16 : 32);
    Bytes nonce = rng.NextBytes(kCtrNonceSize);
    Bytes in = rng.NextBytes(len);
    Aes aes = *Aes::Create(key);
    Bytes want(len), got(len);
    kernels::CtrPortable(aes, nonce.data(), in.data(), want.data(), len);
    kernels::CtrAesNi(aes, nonce.data(), in.data(), got.data(), len);
    ASSERT_EQ(got, want) << "len=" << len << " key bytes=" << key.size();
    // In place, as the kernel contract allows.
    kernels::CtrAesNi(aes, nonce.data(), in.data(), in.data(), len);
    ASSERT_EQ(in, want) << "in-place len=" << len;
  }
}

TEST(CryptoKernelsTest, ShaNiBlocksMatchPortable) {
  if (!kernels::HasShaNi()) GTEST_SKIP() << "CPU has no SHA-NI";
  Rng rng(0x5a);
  for (size_t blocks = 1; blocks <= 40; ++blocks) {
    Bytes data = rng.NextBytes(64 * blocks);
    uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i) want[i] = got[i] = uint32_t(rng.NextU64());
    kernels::Sha256BlocksPortable(want, data.data(), blocks);
    kernels::Sha256BlocksShaNi(got, data.data(), blocks);
    for (int i = 0; i < 8; ++i) ASSERT_EQ(got[i], want[i]) << blocks;
  }
}

// Feeds `data` in pieces whose sizes cycle through odd values, so block
// boundaries fall mid-piece, at piece edges and across several pieces.
Bytes HashInPieces(const kernels::Set& k, const Bytes& data, size_t seed) {
  static const size_t kPieces[] = {1, 63, 7, 64, 65, 3, 129, 31, 200};
  Sha256 h(k);
  size_t at = 0;
  for (size_t i = seed; at < data.size(); ++i) {
    size_t n = std::min(kPieces[i % std::size(kPieces)], data.size() - at);
    h.Update(data.data() + at, n);
    at += n;
  }
  return h.Finish();
}

Bytes HashOneShot(const kernels::Set& k, const Bytes& data) {
  Sha256 h(k);
  h.Update(data);
  return h.Finish();
}

TEST(CryptoKernelsTest, Sha256SplitUpdatesMatchOneShot) {
  Rng rng(0x17);
  for (size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u,
                     1000u, 4101u}) {
    Bytes data = rng.NextBytes(len);
    Bytes want = HashOneShot(kernels::Portable(), data);
    for (size_t seed = 0; seed < 9; ++seed) {
      ASSERT_EQ(HashInPieces(kernels::Portable(), data, seed), want) << len;
    }
  }
}

TEST(CryptoKernelsTest, ShaNiSplitUpdatesMatchPortable) {
  if (!kernels::HasShaNi()) GTEST_SKIP() << "CPU has no SHA-NI";
  Rng rng(0x18);
  for (size_t len = 0; len <= 1100; len += 13) {
    Bytes data = rng.NextBytes(len);
    Bytes want = HashOneShot(kernels::Portable(), data);
    ASSERT_EQ(HashInPieces(kernels::Dispatched(), data, len), want) << len;
    ASSERT_EQ(Sha256Hash(data), want) << len;
  }
}

TEST(CryptoKernelsTest, AeadDispatchedMatchesPortable) {
  if (!kernels::HasAesNi() && !kernels::HasShaNi()) {
    GTEST_SKIP() << "CPU has neither AES-NI nor SHA-NI";
  }
  Rng rng(0xaead);
  for (size_t len : {0u, 1u, 15u, 16u, 63u, 64u, 65u, 1000u, 4096u}) {
    Bytes key = rng.NextBytes(32), nonce = rng.NextBytes(12);
    Bytes aad = rng.NextBytes(len % 40), pt = rng.NextBytes(len);
    Bytes want =
        *kernels::AeadSealWith(kernels::Portable(), key, nonce, aad, pt);
    Bytes got =
        *kernels::AeadSealWith(kernels::Dispatched(), key, nonce, aad, pt);
    ASSERT_EQ(got, want) << len;
    EXPECT_EQ(*kernels::AeadOpenWith(kernels::Portable(), key, nonce, aad,
                                     got),
              pt);
  }
}

TEST(CryptoKernelsTest, SharedExtractEqualsDeriveKey) {
  Bytes parent = Rng(3).NextBytes(32);
  Bytes prk = HkdfExtract(parent, {});
  EXPECT_EQ(HkdfExpand(prk, "tc.aead.enc", 32),
            DeriveKey(parent, "tc.aead.enc"));
  EXPECT_EQ(HkdfExpand(prk, "tc.aead.mac", 32),
            DeriveKey(parent, "tc.aead.mac"));
}

TEST(CryptoKernelsTest, HmacStreamMatchesOneShot) {
  Rng rng(0x4d);
  for (size_t key_len : {0u, 32u, 64u, 65u, 100u}) {
    Bytes key = rng.NextBytes(key_len), msg = rng.NextBytes(777);
    HmacSha256Stream mac(key, kernels::Portable());
    mac.Update(msg.data(), 100);
    mac.Update(msg.data() + 100, msg.size() - 100);
    EXPECT_EQ(mac.Finish(), HmacSha256(key, msg)) << key_len;
  }
}

}  // namespace
}  // namespace tc::crypto
