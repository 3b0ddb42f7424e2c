// E9 — cryptographic primitive micro-benchmarks (google-benchmark).
//
// The per-class columns of E4/E6 all bottom out in these primitives; the
// numbers here are host-machine speeds (multiply by the DeviceProfile
// cpu_slowdown for a device-class estimate).
//
// SHA-256, AES-CTR and AEAD seal run twice, side by side: on the portable
// kernels (argument kernel:0) and on the kernels this CPU dispatched
// (kernel:1, the path every library call takes). Each row's label names
// the kernel that ran.

#include <benchmark/benchmark.h>

#include <string>

#include "tc/crypto/aes.h"
#include "tc/crypto/bignum.h"
#include "tc/crypto/dh.h"
#include "tc/crypto/group.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/kernels.h"
#include "tc/crypto/merkle.h"
#include "tc/crypto/paillier.h"
#include "tc/crypto/schnorr.h"
#include "tc/crypto/shamir.h"
#include "tc/crypto/sha256.h"

namespace tc::crypto {
namespace {

// kernel:0 = the portable kernels, kernel:1 = the dispatched ones.
const kernels::Set& KernelArg(const benchmark::State& state) {
  return state.range(1) == 0 ? kernels::Portable() : kernels::Dispatched();
}

void BM_Sha256(benchmark::State& state) {
  const kernels::Set& k = KernelArg(state);
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    Sha256 h(k);
    h.Update(data);
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(k.sha256_name);
}
BENCHMARK(BM_Sha256)
    ->ArgNames({"bytes", "kernel"})
    ->ArgsProduct({{64, 2048, 65536}, {0, 1}});

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 1), data(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(2048);

// AesCtrCrypt on a chosen kernel: key schedule plus keystream.
void BM_AesCtr(benchmark::State& state) {
  const kernels::Set& k = KernelArg(state);
  Bytes key(32, 1), nonce(12, 2), data(state.range(0), 3);
  Bytes out(data.size());
  for (auto _ : state) {
    Aes aes = *Aes::Create(key);
    k.ctr(aes, nonce.data(), data.data(), out.data(), data.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(k.aes_name);
}
BENCHMARK(BM_AesCtr)
    ->ArgNames({"bytes", "kernel"})
    ->ArgsProduct({{2048, 4096, 65536}, {0, 1}});

void BM_AeadSeal(benchmark::State& state) {
  const kernels::Set& k = KernelArg(state);
  Bytes key(32, 1), nonce(12, 2), aad(32, 3), data(state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*kernels::AeadSealWith(k, key, nonce, aad, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::string(k.aes_name) + "+" + k.sha256_name);
}
BENCHMARK(BM_AeadSeal)
    ->ArgNames({"bytes", "kernel"})
    ->ArgsProduct({{2048, 4096, 65536}, {0, 1}});

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(Bytes(64, static_cast<uint8_t>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(*MerkleTree::Build(leaves));
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(64)->Arg(1024);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 1024; ++i) {
    leaves.push_back(Bytes(64, static_cast<uint8_t>(i)));
  }
  auto tree = *MerkleTree::Build(leaves);
  for (auto _ : state) {
    auto proof = *tree.Prove(512);
    benchmark::DoNotOptimize(
        MerkleTree::Verify(tree.root(), leaves[512], proof));
  }
}
BENCHMARK(BM_MerkleProveVerify);

void BM_ModExp(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-modexp"));
  size_t bits = state.range(0);
  BigInt m = BigInt::GeneratePrime(rng, bits);
  BigInt base = BigInt::RandomBelow(rng, m);
  BigInt exp = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModExp(base, exp, m));
  }
}
BENCHMARK(BM_ModExp)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_DhSharedKey(benchmark::State& state) {
  const GroupParams& group = GroupParams::Standard(state.range(0));
  DiffieHellman dh(group);
  SecureRandom rng(ToBytes("bench-dh"));
  DhKeyPair a = dh.GenerateKeyPair(rng);
  DhKeyPair b = dh.GenerateKeyPair(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *dh.ComputeSharedKey(a.private_key, b.public_key));
  }
}
BENCHMARK(BM_DhSharedKey)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_SchnorrSign(benchmark::State& state) {
  const GroupParams& group = GroupParams::Standard(512);
  Schnorr schnorr(group);
  SecureRandom rng(ToBytes("bench-schnorr"));
  SchnorrKeyPair keys = schnorr.GenerateKeyPair(rng);
  Bytes msg = ToBytes("daily aggregate 28.5 kWh");
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr.Sign(keys.private_key, msg, rng));
  }
}
BENCHMARK(BM_SchnorrSign)->Unit(benchmark::kMillisecond);

void BM_SchnorrVerify(benchmark::State& state) {
  const GroupParams& group = GroupParams::Standard(512);
  Schnorr schnorr(group);
  SecureRandom rng(ToBytes("bench-schnorr-v"));
  SchnorrKeyPair keys = schnorr.GenerateKeyPair(rng);
  Bytes msg = ToBytes("daily aggregate 28.5 kWh");
  SchnorrSignature sig = schnorr.Sign(keys.private_key, msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr.Verify(keys.public_key, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify)->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-paillier"));
  static PaillierKeyPair kp = Paillier::GenerateKeyPair(rng, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*kp.pub.Encrypt(BigInt(12345), rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Unit(benchmark::kMillisecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-paillier-d"));
  static PaillierKeyPair kp = Paillier::GenerateKeyPair(rng, 512);
  BigInt ct = *kp.pub.Encrypt(BigInt(12345), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*kp.priv.Decrypt(ct, kp.pub));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Unit(benchmark::kMillisecond);

void BM_ShamirSplit(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-shamir"));
  Bytes key = rng.NextBytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *ShamirSecretSharing::SplitKey(key, 3, state.range(0), rng));
  }
}
BENCHMARK(BM_ShamirSplit)->Arg(5)->Arg(20);

void BM_ShamirReconstruct(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-shamir-r"));
  Bytes key = rng.NextBytes(32);
  auto shares = *ShamirSecretSharing::SplitKey(key, 3, 5, rng);
  std::vector<ShamirShare> subset(shares.begin(), shares.begin() + 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*ShamirSecretSharing::ReconstructKey(subset));
  }
}
BENCHMARK(BM_ShamirReconstruct);

}  // namespace
}  // namespace tc::crypto

BENCHMARK_MAIN();
