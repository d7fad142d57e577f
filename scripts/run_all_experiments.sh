#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the extra ablations.
# CSV/JSONL output and run manifests land in target/experiments/; at the
# end, manifests (and any observability sidecars the sweep produced:
# traces under ANT_TRACE, each also folded into <bin>.folded collapsed
# stacks by `obsctl flame fold`, and Perfetto timelines under ANT_PROFILE)
# are collected into results/ as the sweep's durable record — ready for
# `obsctl trace` / `obsctl flame diff`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release

BINARIES=(
  fig01_breakdown
  tab02_efficiency
  tab03_matmul_efficiency
  fig09_speedup_energy
  tab05_rcps_avoided
  fig10_vs_dense
  fig11_same_sparsity
  fig12_multiplier_sweep
  fig13_fnir_sweep
  fig14_ablation
  sec75_area
  sec76_overhead
  sec77_inner_product
  sec78_transformer_rnn
  extra_real_traces
  extra_table1_machines
  extra_load_balance
  extra_dataflow
  extra_pattern_sensitivity
  extra_accumulator
  extra_minimum_mults
  extra_energy_breakdown
  extra_scheduling
  extra_resnet_traces
)

EXPDIR="${CARGO_TARGET_DIR:-target}/experiments"
USER_TRACE_FILE="${ANT_TRACE_FILE:-}"

for bin in "${BINARIES[@]}"; do
  echo
  echo "================================================================"
  echo "== $bin"
  echo "================================================================"
  # Each process truncates its trace file on open, so give every binary
  # its own (unless the caller pinned one); the whole sweep's traces
  # then survive side by side.
  if [[ -n "${ANT_TRACE:-}" && -z "$USER_TRACE_FILE" ]]; then
    export ANT_TRACE_FILE="$EXPDIR/trace-$bin.jsonl"
  fi
  ./target/release/"$bin"
done

# Collect the durable record of this sweep.
mkdir -p results
cp -f "$EXPDIR"/*.manifest.json results/ 2>/dev/null || true
if [[ -n "${ANT_TRACE:-}" ]]; then
  cp -f "$EXPDIR"/trace-*.jsonl results/ 2>/dev/null || true
  [[ -n "$USER_TRACE_FILE" && -f "$USER_TRACE_FILE" ]] && cp -f "$USER_TRACE_FILE" results/
  for trace in results/trace-*.jsonl; do
    [[ -f "$trace" ]] || continue
    bin="${trace#results/trace-}"
    ./target/release/obsctl flame fold "$trace" > "results/${bin%.jsonl}.folded"
  done
fi
# Timeline sidecars default to per-binary stems (<bin>.perfetto.json), so
# a plain glob collects the sweep.
if [[ -n "${ANT_PROFILE:-}" ]]; then
  cp -f "$EXPDIR"/*.perfetto.json results/ 2>/dev/null || true
fi
echo
echo "manifests collected into results/ ($(ls results/*.manifest.json 2>/dev/null | wc -l) files)"
