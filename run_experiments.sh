#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/.
#
# Extra arguments are forwarded to every campaign-aware binary, so an
# interrupted run picks up where it died:
#
#   ./run_experiments.sh --resume
#
# (also --deadline SECS, --retries N, --max-events N, --journal-dir DIR).
# A failing experiment aborts the script with its exit code — exit 6
# means "interrupted but journaled": rerun with --resume.
#
# Logging (the experiment binaries observe no runs; to record a run's
# metrics or trace, use the offchip CLI's --metrics/--trace, see
# DESIGN.md §10):
#   OFFCHIP_LOG=error|warn|info|debug
#                              stderr log threshold (campaign heartbeats
#                              and sweep timings land in results/*.log)
set -euo pipefail
export OFFCHIP_LOG="${OFFCHIP_LOG:-info}"
cd "$(dirname "$0")"
BIN=target/release
# table1/table3/figure1 are closed-form (no simulation campaign) and take
# no flags; the rest journal every completed sweep point.
for exp in table1 table3 figure1; do
  echo "== $exp =="
  "$BIN/$exp" > "results/$exp.txt" 2> "results/$exp.log"
done
for exp in table2 table4 figure3 figure4 figure5 figure6 ablations; do
  echo "== $exp =="
  "$BIN/$exp" "$@" > "results/$exp.txt" 2> "results/$exp.log"
done
echo "all experiments written to results/"
