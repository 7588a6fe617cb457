#!/bin/sh
# Every workload end to end at one seed: sh perfbench/all.sh [SEED] [SECONDS]
set -e
for workload in acceptance touching; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "${1:-42}" --seconds "${2:-55}" --trace 0
done
