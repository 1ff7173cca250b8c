#!/usr/bin/env python3
"""Campaign benchmark entry point.

Run from the root of an nnsmith checkout:

    python3 perfbench/run.py --workload paper-default --seed 2023 \
        --seconds 15 --trace 0

Builds perfbench/campaign_bench from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and forwards its
output. With --trace 0 the last stdout line holds the end-to-end
metrics, with --trace 1 the per-layer ledger's metrics. Every run
works in a fresh scratch directory under the build directory, removes
it afterwards, and checks that no file of the checkout changed.

Exit codes: 0 = measured and correct; 1 = measured but a correctness
check failed (the result line says "correct": false), or the program
failed without a result; 2 = bad arguments or not a checkout.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-default", "heavy-exec", "triage")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def tree_digest(root):
    """Digest of every checkout file outside build and hidden dirs."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and not d.startswith("build"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "fuzz", "parallel_campaign.cpp")):
        die("nnsmith sources not found; run from the root of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "campaign_bench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "campaign_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, os.path.join(out_dir, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as error:
        die(f"build failed: {error}", 1)

    scratch = os.path.join(out_dir, f"scratch-{os.getpid()}")
    before = tree_digest(root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch,
               "--corpus", os.path.join(root, "tests", "data", "corpus")]
    # Own process group, so a timeout also stops the forked workers.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"timed out after {RUN_TIMEOUT_S}s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = output.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(output)
        die(f"no result line (exit code {proc.returncode})", 1)
    for line in lines[:-1]:
        print(line)
    if tree_digest(root) != before:
        print("check failed: the run changed files of the checkout")
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
