#!/usr/bin/env python3
"""Build and run the sapp benchmark (`perfbench`), from the repository root.

One run:

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

builds the `perfbench` package in release mode (offline; its only
dependencies are the repository's own crates) and runs one workload. The
last line of standard output is the run's JSON result. With `--trace 1`
the Chrome trace-event JSON of the traced ops is written under the build
directory, in `perfbench-traces/`.

Steadiness:

    python3 perfbench/run.py steady --workload count --runs 10 [--seconds S]

runs the workload twice `--runs` times (for `run_seconds` of BENCHMARK.json
unless `--seconds` is given), each run with another seed (the
first set from seed 1, the second from seed 1001), and prints for every
end-to-end metric each set's median and spread (the distance between the
first and third quartile over the median) next to the metric's bound in
BENCHMARK.json, and the second median's change against the first. It exits
non-zero if any run fails, any spread other than `setup_s`'s exceeds its
bound, or a median moves by more than its bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    if env:
        return os.path.abspath(env)
    return os.path.join(HERE, "target")


def build():
    """Build the harness; return the binary's path or exit non-zero."""
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--locked",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {r.returncode})")
    return os.path.join(target_dir(), "release", "perfbench")


def flag(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
        sys.exit(f"perfbench: {name} needs a value")
    return default


def run_once(binary, workload, seed, seconds, trace):
    cmd = [
        binary,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    if str(trace) == "1":
        out = os.path.join(target_dir(), "perfbench-traces", f"{workload}-seed{seed}.json")
        cmd += ["--trace-out", out]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(args):
    workload = flag(args, "--workload") or sys.exit("perfbench: steady needs --workload")
    runs = int(flag(args, "--runs", "10"))
    bench = benchmark()
    seconds = float(flag(args, "--seconds", str(bench["run_seconds"])))
    binary = build()
    metrics = bench["end_to_end"]
    ok = True
    sets = []
    for first_seed in (1, 1001):
        values = {m["name"]: [] for m in metrics}
        shares = set()
        for seed in range(first_seed, first_seed + runs):
            r = run_once(binary, workload, seed, seconds, 0)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print(f"seed {seed}: exit {r.returncode}, no result")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                ok = False
            shares.add(res["failed"] / res["attempted"])
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
            print(
                f"seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items() if v),
                flush=True,
            )
        sets.append((values, shares))
    (a, sa), (b, sb) = sets
    if sa != sb or len(sa) != 1:
        print(f"failed-op shares differ between runs: {sorted(sa)} vs {sorted(sb)}")
        ok = False
    print(
        f"{'metric':<14} {'median A':>12} {'spread A':>9} {'median B':>12} "
        f"{'spread B':>9} {'B vs A':>8} {'bound':>6}  verdict"
    )
    for m in metrics:
        name, bound = m["name"], m["bound"]
        va, vb = a[name], b[name]
        if len(va) < 2 or len(vb) < 2:
            ok = False
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sp_a, sp_b = spread(va), spread(vb)
        bad = worse > bound or (name != "setup_s" and max(sp_a, sp_b) > bound)
        ok = ok and not bad
        print(
            f"{name:<14} {ma:>12.4g} {sp_a:>9.3f} {mb:>12.4g} {sp_b:>9.3f} "
            f"{worse:>+8.3f} {bound:>6}  {'FAIL' if bad else 'ok'}"
        )
    sys.exit(0 if ok else 1)


def main():
    args = sys.argv[1:]
    if args and args[0] == "steady":
        steady(args[1:])
        return
    workload = flag(args, "--workload") or sys.exit("perfbench: --workload is required")
    seed = flag(args, "--seed", "1")
    seconds = flag(args, "--seconds") or benchmark()["run_seconds"]
    trace = flag(args, "--trace", "0")
    binary = build()
    r = run_once(binary, workload, seed, seconds, trace)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
