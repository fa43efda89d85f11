#!/usr/bin/env bash
# Print every end-to-end and per-layer metric for every workload.
# Usage, from the repository root: bash bench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-30}"
for workload in fuzz_n7 fuzz_long_n4 vote_fastpath; do
    for trace in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
