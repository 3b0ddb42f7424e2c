#!/bin/sh
# Prints the line total of the library sources (every .h and .cc under
# src/), then one line per src/tc/* directory, so each change's effect on
# the size of src/ — and where it landed — shows in the CI log.
# Reports only; it gates nothing.
set -eu
cd "$(dirname "$0")/.."

# Lines of every .h and .cc file under $1.
count() {
  find "$1" -type f \( -name '*.h' -o -name '*.cc' \) -exec cat {} + |
    wc -l | tr -d ' '
}

echo "src_lines: $(count src) lines in src/ (.h + .cc)"
for dir in src/tc/*/; do
  printf 'src_lines: %7d  %s\n' "$(count "$dir")" "${dir%/}"
done
