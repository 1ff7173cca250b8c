#!/usr/bin/env bash
# Tier-1 verification + strict-warnings build + sanitizer build.
#
#   scripts/check.sh            # docs check + build + ctest, then strict build
#   scripts/check.sh --fast     # skip the strict build
#   scripts/check.sh --sanitize # the ASan+UBSan build + ctest (own CI job)
#
# Mirrors .github/workflows/ci.yml so CI failures reproduce locally.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

run_sanitize() {
    echo "== sanitize: ASan + UBSan =="
    cmake -B build-sanitize -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
    cmake --build build-sanitize -j "$JOBS"
    ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"
}

if [[ "${1:-}" == "--sanitize" ]]; then
    run_sanitize
    echo "== check.sh: sanitize green =="
    exit 0
fi

echo "== docs: README fig→driver table vs bench/ targets =="
scripts/check_docs.sh

echo "== tier-1: configure + build =="
cmake -B build -S .
cmake --build build -j "$JOBS"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== Tzer smoke: serial coverage-guided campaign with --minimize =="
# Tzer learns from the campaign loop's coverage feedback, and its
# minimized TIR repros (no initial buffers) cross the wire format into
# the merge; a repro that fails to decode aborts the run. --report-dir
# must write repro reports, and the telemetry flags make this run the
# source for the trace/metrics validation below (bench_util.h's atexit
# hook writes both files).
rm -rf build/repro-smoke
rm -f build/trace-smoke.jsonl build/metrics-smoke.json
./build/bench/fig8_tzer_venn --iters 60 --minimize \
    --report-dir build/repro-smoke \
    --trace-out build/trace-smoke.jsonl --metrics-out build/metrics-smoke.json
if ! ls build/repro-smoke/*.repro.txt >/dev/null 2>&1; then
    echo "check.sh: --report-dir produced no .repro.txt report"
    exit 1
fi

echo "== telemetry output: emitted trace/metrics files are valid =="
scripts/check_docs.sh --validate-telemetry \
    build/trace-smoke.jsonl build/metrics-smoke.json

echo "== fig11 determinism probe: virtual search budgets are seed-pure =="
# The value search charges a virtual cost per iteration instead of
# reading a clock (autodiff/grad_search.h), so two runs must print the
# same Figure 11 success-rate table, byte for byte.
fig11_table() {
    ./build/bench/fig11_gradient_search --iters 288 |
        sed -n '/success rate vs/,$p'
}
if [[ "$(fig11_table)" != "$(fig11_table)" ]]; then
    echo "check.sh: fig11's success-rate table differs between two runs"
    exit 1
fi

echo "== batch probe: batched cases speed up and stay byte-identical =="
# Exits nonzero unless cases/sec at --batch 16 is >= 1.5x --batch 1 and
# canonical result renderings and report trees are byte-identical
# batched-vs-unbatched across {thread, process} x shards {1, 2, 4}.
./build/bench/bench_batch --iters 60 --out build/BENCH_batch_smoke.json

if [[ "${1:-}" != "--fast" ]]; then
    echo "== strict: -Wall -Wextra -Werror =="
    cmake -B build-strict -S . -DNNSMITH_STRICT=ON
    cmake --build build-strict -j "$JOBS"
    ctest --test-dir build-strict --output-on-failure -j "$JOBS"
fi

echo "== check.sh: all green =="
