#!/usr/bin/env python3
"""End-to-end RT-DBSCAN benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload porto-dense --seed 1 --seconds 10 --trace 0

Run from the root of the repository.  The script builds the benchmark
package in this directory (release profile, offline) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), runs the workload, records
the environment, and writes the full record (every metric with its sample
count, the environment, failure notes) to ``.bench_out/``.  Its last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("porto-dense", "iono-sparse-sharded", "porto-stream")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"),
           "--target-dir", target]
    # Build output goes to stderr: stdout carries only the report.
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "rtdbscan-perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so that records
    made from a checkout without git history still name their code."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), HERE]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in roots:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)
                      if n.endswith((".rs", ".toml", ".lock", ".py"))]
    for f in files:
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(binary_env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
           "commit": commit, "source_digest": source_digest()}
    env.update(binary_env)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build()

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(OUT, f"spans-{stem}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within 170 s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"workload exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["env"] = environment(record["env"])
    record["seconds"] = args.seconds

    print("\n".join(lines[:-1]))
    print("env: " + json.dumps(record["env"], sort_keys=True))
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}: {got}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
