#!/bin/sh
# Prints the line total of the library sources (every .h and .cc under
# src/), so each change's effect on the size of src/ shows in the CI log.
# Reports only; it gates nothing.
set -eu
cd "$(dirname "$0")/.."

total=$(find src -type f \( -name '*.h' -o -name '*.cc' \) -exec cat {} + |
  wc -l | tr -d ' ')
echo "src_lines: $total lines in src/ (.h + .cc)"
