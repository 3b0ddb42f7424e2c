#!/bin/sh
# The tier-1 verify, end to end (cited by ROADMAP.md):
#
#   1. configure + build the default tree;
#   2. run the full ctest suite (the fast "unit" lane: every suite at its
#      cheap default sweep depth);
#   3. wire lane: rpc_test plus the chaos/txn suites rerun with
#      TC_TRANSPORT=socket (real loopback TCP under the same fault
#      injection and serializability checks). Every wire test carries an
#      explicit ctest TIMEOUT; where loopback sockets are unavailable the
#      tests GTEST_SKIP with a printed reason and the lane stays green;
#   4. lockfree lane: the lock-free hot-path suite (epoch reclamation,
#      bump-allocated append log, LogStore/BlobStore reader-vs-GC stress)
#      rerun on its own so a hang or flake is attributable at a glance;
#   4b. telemetry lane: the fleet telemetry plane (delta merge property,
#      shipper/hub dedup protocol, chaos exactness, SLO burn rates) rerun
#      on its own — the label also covers the socket-transport leg;
#   4c. overload lane: the overload control plane (deadline propagation +
#      shed-before-execute, gradient admission, CoDel queue aging, retry
#      budgets) and its metastable-failure chaos suite — the label also
#      covers the socket-transport leg proving pushback over real TCP;
#   4d. crypto lane: the hardware AES-NI/SHA-NI kernels cross-checked
#      against the portable oracle, plus the AEAD format freeze; prints the
#      kernels this CPU dispatched, so a portable-only run is visible (its
#      hardware cases skip with the reason printed);
#   5. deep chaos/txn lane (opt-in): TC_CHAOS_SEEDS widens the fault-rate x
#      seed sweeps, re-running only the suites labeled chaos/txn — CI keeps
#      the cheap default, nightly jobs export TC_CHAOS_SEEDS=25;
#   6. chaos determinism gate: every chaos seed must replay exactly from
#      its printed fault schedule (a chaos failure that cannot be
#      reproduced from its schedule print is not debuggable);
#   7. check no generated build*/ tree is tracked or staged, and print the
#      src/ line total (scripts/src_lines.sh; reports, gates nothing);
#   8. run the obs export validator (quick bench run + trace JSON checks);
#   9. build and self-test the repository benchmark (perfbench/): it
#      compiles against the cell, transport and provider APIs, so a src/
#      API change that breaks it fails here. Skips, with the reason
#      printed, only when python3 is absent.
#
# Each step's script documents its own skip conditions; this wrapper just
# sequences them and stops at the first failure.
set -eu
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")
echo "ci: wire lane (loopback-socket legs; skips print their reason)"
(cd build && ctest --output-on-failure -L wire)
echo "ci: lockfree lane (epoch reclamation + reader-vs-GC stress)"
(cd build && ctest --output-on-failure -L lockfree)
echo "ci: telemetry lane (mergeable deltas, hub dedup, SLO burn rates)"
(cd build && ctest --output-on-failure -L telemetry)
echo "ci: overload lane (deadline shedding, admission, CoDel, retry budgets)"
(cd build && ctest --output-on-failure -L overload)
echo "ci: crypto lane (hardware kernels vs the portable oracle, format freeze)"
(cd build && ctest --output-on-failure -L crypto)
build/tests/crypto_kernels_test --gtest_filter='*ReportsDispatch*' |
  grep '^crypto kernels:'
if [ -n "${TC_CHAOS_SEEDS:-}" ]; then
  echo "ci: deep chaos/txn lane (TC_CHAOS_SEEDS=${TC_CHAOS_SEEDS})"
  (cd build && ctest --output-on-failure -L 'chaos|txn')
fi
build/tests/chaos_test \
  --gtest_filter='*ReproducesFromPrintedSchedule*' > /dev/null || {
  echo "ci: chaos schedule replay is NOT deterministic" >&2
  exit 1
}
scripts/check_tree_clean.sh
scripts/src_lines.sh
scripts/validate_obs_export.sh
if command -v python3 > /dev/null 2>&1; then
  echo "ci: benchmark self-test (perfbench build + output checks)"
  python3 perfbench/test_bench.py
else
  echo "ci: python3 not available; SKIPPING the benchmark self-test" >&2
fi
echo "ci: all tier-1 checks passed"
