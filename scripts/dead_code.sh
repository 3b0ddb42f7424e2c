#!/bin/sh
# Dead-code report: the strong tc:: functions that no binary links, and
# those that only test binaries link.
#
# Method: build the whole tree at -O0 with -ffunction-sections and
# -fdata-sections into build-deadcode/ and link every binary with
# --gc-sections. Each function (and each switch table) then sits in its own
# section, and the linker drops every section that no path from main
# reaches. A strong (`T`) tc:: function defined in a src/ library is
#   - in no binary when no tests/, bench/ or examples/ binary keeps it;
#   - in test binaries only when some tests/ binary keeps it but no bench/
#     or examples/ binary does (code that only a test calls, or a test
#     harness living in a library).
#
# Limits:
#   - Inline and template code is invisible to it. Such functions are weak
#     (`W`) or never emitted, so an unused inline function, class-body
#     member or template is not reported.
#   - It does not build perfbench/ (a separate CMake project), so a
#     function that only the benchmark calls is reported as in no binary.
#     Grep perfbench/ before deleting one.
#
# Reports only; it gates nothing. Skips, with the reason printed, when nm
# is absent. The build takes about 2 minutes on 4 cores.
set -eu
cd "$(dirname "$0")/.."

if ! command -v nm > /dev/null 2>&1; then
  echo "dead_code: nm not available; SKIPPING the dead-code report" >&2
  exit 0
fi

out=build-deadcode
log="$out/build.log"
mkdir -p "$out"
# A build type of its own, so no -O2/-g from Release/Debug is appended.
cmake -B "$out" -S . -DCMAKE_BUILD_TYPE=DeadCode \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$log" 2>&1 &&
  cmake --build "$out" -j "$(nproc)" >> "$log" 2>&1 || {
  tail -n 40 "$log" >&2
  echo "dead_code: the build failed (log: $log)" >&2
  exit 1
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Strong tc:: functions: `nm -C` prints "<addr> T <demangled name>".
strong() {
  nm -C --defined-only "$@" 2> /dev/null |
    sed -n 's/^[0-9a-f]* T \(tc::.*\)$/\1/p' | sort -u
}

strong "$out"/src/libtc_*.a > "$tmp/lib"
strong "$out"/tests/*_test > "$tmp/tests"
strong "$out"/bench/bench_* "$out"/examples/example_* > "$tmp/other"
sort -u "$tmp/tests" "$tmp/other" > "$tmp/linked"

comm -23 "$tmp/lib" "$tmp/linked" > "$tmp/dead"
comm -12 "$tmp/lib" "$tmp/tests" | comm -23 - "$tmp/other" > "$tmp/test_only"

echo "dead_code: $(wc -l < "$tmp/lib" | tr -d ' ') strong tc:: functions in src/"
echo "dead_code: $(wc -l < "$tmp/dead" | tr -d ' ') in no binary"
sed 's/^/dead_code:   /' "$tmp/dead"
echo "dead_code: $(wc -l < "$tmp/test_only" | tr -d ' ') in test binaries only"
sed 's/^/dead_code:   /' "$tmp/test_only"
