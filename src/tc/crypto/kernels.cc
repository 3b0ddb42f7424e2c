#include "tc/crypto/kernels.h"

namespace tc::crypto::kernels {

// __builtin_cpu_init makes the probes safe from static initializers that
// run before libgcc's own CPU-model constructor.
bool HasAesNi() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

bool HasShaNi() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

const Set& Portable() {
  static const Set kPortable{"portable", CtrPortable, "portable",
                             Sha256BlocksPortable};
  return kPortable;
}

const Set& Dispatched() {
  static const Set kDispatched = [] {
    Set s = Portable();
    if (HasAesNi()) {
      s.aes_name = "aes-ni";
      s.ctr = CtrAesNi;
    }
    if (HasShaNi()) {
      s.sha256_name = "sha-ni";
      s.sha256_blocks = Sha256BlocksShaNi;
    }
    return s;
  }();
  return kDispatched;
}

}  // namespace tc::crypto::kernels
