#!/usr/bin/env bash
# Write the quick JSON output of every simulator-driven bench binary into
# one directory, for comparing two trees byte for byte:
#
#   scripts/sim_outputs.sh <out-dir>
#
# Run it from the root of the tree to measure (it builds that tree). The
# simulator is seeded and runs in virtual time, so two trees whose
# simulator behaviour is the same write identical files; `diff -r` of two
# such directories is the "simulator output unchanged" check.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 <out-dir>" >&2
    exit 2
fi
out=$1
mkdir -p "$out"
out=$(cd "$out" && pwd)

bins="fig1 fig2 fig6 fig7 fig8 fig9 table1 table2 table3 metg throttle cholesky_bench"
cargo build --release --quiet -p ptdg-bench --bins
for bin in $bins; do
    echo "== $bin" >&2
    PTDG_QUICK=1 cargo run --release --quiet -p ptdg-bench --bin "$bin" -- \
        --json "$out/$bin.json" > /dev/null
done
