#!/usr/bin/env bash
# Local CI gate. Everything here runs offline; the proptest/criterion suite
# in extras/ is deliberately outside this gate (needs registry access).
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== build =="
cargo build --release --workspace

echo "== rustdoc (no broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== test =="
cargo test --workspace --release -q

echo "== benchmark unit tests (golden pins, compare verdicts) =="
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== repro smoke (scale test, parallel == serial bytes) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/serial" "$tmp/par"
(cd "$tmp/serial" && "$OLDPWD/target/release/repro_all" --scale test --jobs 1 >stdout.txt)
(cd "$tmp/par" && "$OLDPWD/target/release/repro_all" --scale test --jobs 4 >stdout.txt)
diff -r "$tmp/serial/results" "$tmp/par/results"

echo "== benchmark smoke (all four workloads: experiment tables and edge answers against benchmark/golden/) =="
# Exits nonzero on any drift: repro hashes all 13 experiment tables, and
# each edge workload checks its golden pins and compares socket answers
# with the in-process service. So neither the paper's numbers nor the
# edge's answers can change unnoticed.
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --bin benchmark -- \
    run --smoke >"$tmp/bench_smoke.txt"
test "$(grep -c '"correct": true' "$tmp/bench_smoke.txt")" -eq 4

echo "== perf bench (scale test) + BENCH json schema =="
(cd "$tmp" && "$OLDPWD/target/release/perf" --scale test >perf_stdout.txt)
./target/release/check_bench_json "$tmp/BENCH_simulator.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmp/BENCH_simulator.json"

echo "== shared-cache smoke (multi-thread vCPU fleet, chained dispatch hints firing) =="
grep -q "Shared translation cache (4 vCPUs" "$tmp/perf_stdout.txt"
grep -Eq 'hint hit rate: +[0-9.]+% +\([1-9][0-9]* hits' "$tmp/perf_stdout.txt"
grep -Eq 'fleet translations: +[0-9]+ private -> [0-9]+ shared' "$tmp/perf_stdout.txt"

echo "== trace_report smoke (JSONL written, EH converges, top-N) =="
./target/release/trace_report --strategy eh --top 3 --jsonl "$tmp/trace.jsonl" >"$tmp/trace_stdout.txt"
grep -q "trap rate CONVERGED" "$tmp/trace_stdout.txt"
grep -q "Hot sites (top 3" "$tmp/trace_stdout.txt"
grep -q '"type":"meta"' "$tmp/trace.jsonl"

echo "== streaming + diff smoke (full-fidelity stream, EH-vs-dynamic delta) =="
./target/release/trace_report --strategy eh --stream "$tmp/eh.jsonl" >"$tmp/eh_stdout.txt"
grep -q "streamed " "$tmp/eh_stdout.txt"
grep -q '"type":"summary"' "$tmp/eh.jsonl"
./target/release/trace_report --strategy dynamic --stream "$tmp/dyn.jsonl" >/dev/null
./target/release/trace_report --diff "$tmp/eh.jsonl" "$tmp/dyn.jsonl" >"$tmp/diff_stdout.txt"
grep -q "convergence verdict CHANGED: A converged -> B no_patches" "$tmp/diff_stdout.txt"
grep -q "B trapped .* more times than A" "$tmp/diff_stdout.txt"

echo "== offline watch replay smoke (site watch over a streamed capture) =="
./target/release/trace_report --watch "$tmp/eh.jsonl" --window-cycles 4000 >"$tmp/watch_stdout.txt"
grep -q "watch replay" "$tmp/watch_stdout.txt"
grep -Eq '0x[0-9a-f]+ -> converged' "$tmp/watch_stdout.txt"
# A damaged capture exits with the scan-warning code, not silently.
cp "$tmp/eh.jsonl" "$tmp/damaged.jsonl"
echo 'not json' >>"$tmp/damaged.jsonl"
if ./target/release/trace_report --watch "$tmp/damaged.jsonl" >/dev/null; then
    echo "damaged capture must exit nonzero" >&2
    exit 1
fi

echo "== span smoke (deterministic flamegraph, well-formed Chrome export, fleet health lines) =="
./target/release/trace_report --strategy eh --flame "$tmp/flame_a.txt" --spans "$tmp/spans.json" \
    >"$tmp/flame_stdout.txt"
grep -q "wrote folded stacks" "$tmp/flame_stdout.txt"
# A known hot frame: the EH run's execute span under the run root, with
# guest-PC labels and positive self-cycles.
grep -Eq '^eh;run@0x[0-9a-f]+;execute@0x[0-9a-f]+ [1-9]' "$tmp/flame_a.txt"
grep -Eq '^eh;run@0x[0-9a-f]+;translate@0x[0-9a-f]+ [1-9]' "$tmp/flame_a.txt"
./target/release/trace_report --strategy eh --flame "$tmp/flame_b.txt" >/dev/null
diff "$tmp/flame_a.txt" "$tmp/flame_b.txt"   # cycle-domain flame output is deterministic
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents'], 'no trace events'" \
    "$tmp/spans.json"
grep -q '"ph":"X"' "$tmp/spans.json"
./target/release/trace_report --health --strategy dpeh >"$tmp/health.txt"
grep -q '"schema":"bridge-health/1"' "$tmp/health.txt"
grep -q '"context":"service"' "$tmp/health.txt"
grep -q '"context":"phase_change_sum/dpeh/50"' "$tmp/health.txt"

echo "== independent parser (python3 json) over every JSON line the tools wrote =="
# Every line of each trace, and every bridge-health/1 line of the health
# report (its other lines are prose), must parse as one JSON object.
grep '"schema":"bridge-health/1"' "$tmp/health.txt" >"$tmp/health.jsonl"
python3 - "$tmp/trace.jsonl" "$tmp/eh.jsonl" "$tmp/dyn.jsonl" "$tmp/health.jsonl" <<'PY'
import json, sys
for path in sys.argv[1:]:
    lines = open(path).read().splitlines()
    if not lines:
        sys.exit(f"{path}: empty")
    for n, line in enumerate(lines, 1):
        if not isinstance(json.loads(line), dict):
            sys.exit(f"{path}:{n}: not a JSON object")
PY

echo "== AOT image smoke (build -> verify -> warm re-build, store audit) =="
mkdir -p "$tmp/images"
./target/release/dbt_image build --dir "$tmp/images" --kernel phase_change --strategy static \
    --iters 60 --threshold 10 >"$tmp/aot_cold.txt"
grep -q "saved 1 image" "$tmp/aot_cold.txt"
./target/release/dbt_image verify "$tmp/images"
./target/release/dbt_image build --dir "$tmp/images" --kernel phase_change --strategy static \
    --iters 60 --threshold 10 >"$tmp/aot_warm.txt"
diff "$tmp/aot_cold.txt" "$tmp/aot_warm.txt"   # warm rerun is byte-identical
./target/release/trace_report --images "$tmp/images" >"$tmp/aot_audit.txt"
grep -q "1 valid / 0 corrupt" "$tmp/aot_audit.txt"

echo "CI OK"
