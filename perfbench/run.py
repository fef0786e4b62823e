#!/usr/bin/env python3
"""Benchmark entry point: builds the harness and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds `perfbench/harness` (a
package of its own that links the repository's crates by path) with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the harness, and prints the harness's result line as
the last line of stdout. Build and harness progress go to stderr. It exits
non-zero without printing a result when the build or the run fails, or when
the result does not carry exactly the metrics `BENCHMARK.json` declares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# A run measures for --seconds and then checks its outputs; the whole run
# must end well inside three minutes.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    return 1


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return fail(f"harness build failed (exit {build.returncode})")

    exe = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    # The harness runs on one CPU: the rayon stand-in then runs serially, so
    # op times do not depend on how many cores the host grants.
    cpu = max(os.sched_getaffinity(0))
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return fail(f"harness ran longer than {RUN_TIMEOUT_S}s")
    if run.returncode != 0:
        return fail(f"harness failed (exit {run.returncode})")

    lines = run.stdout.strip().splitlines()
    if not lines:
        return fail("harness printed no result")
    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        return fail(f"metrics {got} do not match BENCHMARK.json {kind} {expected}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
