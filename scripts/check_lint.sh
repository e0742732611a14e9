#!/usr/bin/env bash
# CI gate for the workspace's own static analyzer (see docs/LINTS.md):
#
#   1. `pnc-lint check` runs clean on the tree (no unsuppressed finding)
#      and regenerates artifacts/lint_report.json — which must match the
#      committed copy, so the report can never go stale.
#   2. Every reference implementation keeps its output pin: the three
#      cross-backend agreement oracles (matmul_reference,
#      backward_reference, newton_dense; the Newton loop's recovery rungs
#      and transient capacitor stamp are pinned beside it), the two store
#      codecs of DESIGN.md §17 (StoreMeta::encode, StoreRecord::encode), the
#      ptanh fit with the dataset built from it (fit_ptanh_with), the
#      one ML-side tanh (pnc_linalg::tanh), the surrogate's training
#      trajectory (train_surrogate), and the tape oracles of the
#      Monte-Carlo evaluation (mc_evaluate_with against Pnn::predict) and
#      of the hand-derived ω→η chain (against Graph::backward_seeded).
#      Each pin test must still exist in its file (as a plain or a
#      proptest fn); `cargo test` runs them.
#   3. The check itself stays fast: under 10 s of wall time, so the lint
#      job never becomes the long pole.
#
#   cargo build -p pnc-lint   # (any profile; CI uses the debug build)
#   scripts/check_lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# --- 1. self-check + report staleness -----------------------------------
# Build first (untimed) so the wall-time budget below measures the
# analyze+report pass, not the compiler.
cargo build -q -p pnc-lint
start=$(date +%s%N)
cargo run -q -p pnc-lint -- check
end=$(date +%s%N)
elapsed_ms=$(( (end - start) / 1000000 ))

if ! git diff --exit-code -- artifacts/lint_report.json; then
    echo "STALE REPORT: artifacts/lint_report.json does not match the tree;" >&2
    echo "run 'cargo run -p pnc-lint -- check' and commit the result" >&2
    exit 1
fi

# --- 2. oracle output pins ---------------------------------------------
for pin in "crates/linalg/src/matrix.rs matmul_reference_output_is_pinned" \
           "crates/linalg/src/tanh.rs output_is_pinned" \
           "crates/autodiff/src/graph.rs backward_reference_output_is_pinned" \
           "crates/spice/tests/fig3_bits.rs nominal_fig3_sweep_is_bit_identical_to_the_recorded_oracle" \
           "crates/spice/tests/fig3_bits.rs cacheless_fig3_sweep_is_bit_identical_to_the_recorded_oracle" \
           "crates/spice/tests/stamp_bits.rs gmin_rescued_sweep_is_bit_identical_to_the_recorded_oracle" \
           "crates/spice/tests/stamp_bits.rs source_rescued_sweep_is_bit_identical_to_the_recorded_oracle" \
           "crates/spice/tests/stamp_bits.rs latency_step_response_is_bit_identical_to_the_recorded_oracle" \
           "crates/surrogate/src/stream.rs uniform_store_bytes_are_pinned" \
           "crates/surrogate/src/store.rs failure_record_bytes_are_pinned" \
           "crates/surrogate/tests/fit_digest.rs ptanh_fits_and_their_lm_work_are_pinned" \
           "crates/surrogate/tests/dataset_digest.rs in_memory_dataset_is_pinned" \
           "crates/surrogate/tests/train_digest.rs surrogate_training_trajectory_is_pinned" \
           "crates/core/tests/eval_oracle.rs mc_evaluate_matches_tape_predict" \
           "crates/core/src/nonlinearity.rs chain_backward_matches_backward_seeded"; do
    file=${pin%% *}
    test_fn=${pin#* }
    if ! grep -q "fn ${test_fn}(" "$file"; then
        echo "ORACLE PIN: test '${test_fn}' is missing from ${file}; every" >&2
        echo "reference implementation keeps a golden output pin" >&2
        exit 1
    fi
done

# --- 3. wall-time budget ------------------------------------------------
# The analyze+report pass (binary pre-built above) must stay under 10 s —
# the structural rules are supposed to be cheap token passes, not a type
# checker.
if [ "$elapsed_ms" -gt 10000 ]; then
    echo "LINT TOO SLOW: check took ${elapsed_ms} ms (budget 10000 ms)" >&2
    exit 1
fi

echo "check_lint: clean tree, fresh report, oracle pins present (${elapsed_ms} ms)"
