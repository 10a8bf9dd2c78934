#!/usr/bin/env bash
# Full local CI: release build, test suite, and lint-clean clippy.
# All cargo invocations run --offline against the vendored workspace deps.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release"
cargo build --release --offline

echo "== cargo test"
cargo test -q --offline

echo "== perfbench build and tests (benchmark contract)"
# perfbench/ is the benchmark of record: a package of its own, built
# --locked against the workspace crates by path. Building and testing it
# here makes a workspace API or dependency change that breaks it fail CI.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (deny warnings)"
# Broken or ambiguous intra-doc links, e.g. docs still naming a deleted
# function, fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cross-jobs determinism (--jobs 1 vs --jobs 4)"
# The outcome tables must be bit-identical at any worker count; diff the
# stdout tables of a short sweep run serially and sharded.
EXP=target/release/refine-experiments
J1="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 1 --quiet 2>/dev/null)"
J4="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet 2>/dev/null)"
if [ "$J1" != "$J4" ]; then
    echo "determinism check FAILED: --jobs 1 and --jobs 4 outputs differ" >&2
    diff <(printf '%s\n' "$J1") <(printf '%s\n' "$J4") >&2 || true
    exit 1
fi
echo "   identical tables at both job counts"

echo "== checkpoint equivalence (default vs --no-checkpoint)"
# Trial fast-forward must be invisible in every output: diff a short sweep
# with checkpointing on (default) against the exact interpreter path.
CK="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet 2>/dev/null)"
NC="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet --no-checkpoint 2>/dev/null)"
if [ "$CK" != "$NC" ]; then
    echo "checkpoint equivalence FAILED: default and --no-checkpoint outputs differ" >&2
    diff <(printf '%s\n' "$CK") <(printf '%s\n' "$NC") >&2 || true
    exit 1
fi
echo "   identical tables with checkpointing on and off"

echo "== convergence equivalence (default vs --no-convergence)"
# The golden-convergence early exit must be invisible too: diff the same
# sweep with the detector armed (default) against checkpoint-only trials.
NV="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet --no-convergence 2>/dev/null)"
if [ "$CK" != "$NV" ]; then
    echo "convergence equivalence FAILED: default and --no-convergence outputs differ" >&2
    diff <(printf '%s\n' "$CK") <(printf '%s\n' "$NV") >&2 || true
    exit 1
fi
echo "   identical tables with convergence on and off"

echo "== engine equivalence (default superblock vs --engine step)"
# The superblock-fused engine must be invisible in every output: diff the
# same sweep against the per-instruction exact interpreter.
ST="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet --engine step 2>/dev/null)"
if [ "$CK" != "$ST" ]; then
    echo "engine equivalence FAILED: superblock and step outputs differ" >&2
    diff <(printf '%s\n' "$CK") <(printf '%s\n' "$ST") >&2 || true
    exit 1
fi
echo "   identical tables under both engines"

echo "== fused-share gate (superblock engine fuses through FI hooks)"
# Share of trial instructions the superblock engine retired fused on the
# same sweep. It is a deterministic count, not a timing, so it does not
# depend on the machine; it drops when collapsed REFINE sites or counting
# LLFI hooks stop fusing (e.g. an instrumentation change breaks the idiom).
$EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 1 --quiet --json 2>/dev/null \
    | python3 -c '
import json, sys
share = json.load(sys.stdin)["engine"]["superblock"]["fused_instr_share"]
print(f"   fused_instr_share {share:.3f} (gate 0.98)")
if share < 0.98:
    sys.exit(f"fused-share gate FAILED: {share:.3f} < 0.98")
'

echo "== cold superblock/step ratio gate (engine speedup on whole trials)"
# The same cold sweep (checkpointing off, one worker, so every trial runs
# from program start) under both engines, in this one run on this one
# machine: the gate is the ratio of the two engine busy times, so it does
# not depend on the host's speed. Runs alternate between the engines and
# each keeps its fastest of three, so a burst of load on a shared host
# cannot decide the ratio. It reads about 3-4x; running the superblock arm
# unfused reads about 1x and switching off REFINE site collapsing 1-1.7x,
# so the gate sits at 2x.
COLD=(table6 --trials 24 --apps HPCCG-1.0,CoMD --seed 7 --jobs 1 --quiet --json --no-checkpoint)
BUSY='import json, sys; print(json.load(sys.stdin)["engine"]["busy_ns"])'
SB_NS=(); ST_NS=()
for _ in 1 2 3; do
    SB_NS+=("$($EXP "${COLD[@]}" --engine superblock 2>/dev/null | python3 -c "$BUSY")")
    ST_NS+=("$($EXP "${COLD[@]}" --engine step 2>/dev/null | python3 -c "$BUSY")")
done
python3 - "${SB_NS[*]}" "${ST_NS[*]}" <<'PYGATE'
import sys
sb, st = (min(int(ns) for ns in runs.split()) for runs in sys.argv[1:])
ratio = st / max(sb, 1)
print(f"   fastest cold busy: superblock {sb / 1e6:.0f} ms, step {st / 1e6:.0f} ms,"
      f" ratio {ratio:.2f}x (gate 2x)")
if ratio < 2.0:
    sys.exit(f"cold ratio gate FAILED: {ratio:.2f}x < 2x")
PYGATE

echo "CI OK"
