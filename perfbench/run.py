#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke        # self-test of every workload

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the libraries under src/ plus the perfbench
binary) into .bench_build/perfbench; later runs only re-check the build.

A run prints a table (every metric with unit, direction and sample
count, every correctness check, provenance) and, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(timings at a reference host speed: see HostSpeed in cpp/harness.hpp;
the raw wall-clock values are in the provenance); with
--trace 1 they are its per-layer metrics, and the spans go to a
Chrome-trace file, .bench_build/traces/<workload>.trace.json (the last
traced run of each workload). A per-layer metric whose
layer the workload never calls reads 0 (see perfbench/workloads.json for
which layers each workload loads). The full report of every run is kept
under .bench_build/runs for perfbench/compare.py.

Exit code 0 when every check passed, 1 when a check failed (the result
line then says "correct": false), 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["decide", "train", "serve", "cluster"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no READYS sources under {ROOT / 'src'}; run from a repository checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} did not finish: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        fail("build produced no perfbench binary")


def source_identity():
    """git sha when the checkout is a git repository, plus a digest of
    src/ so runs of a plain copy still name the code they measured."""
    sha = "none"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, smoke, git_sha):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--git-sha", git_sha]
    if smoke:
        cmd.append("--smoke")
    if trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not a JSON report")
    return report


def pin_check(report, pins, seed, smoke):
    """mean_makespan is a pure function of (code, seed, f32 ISA); the
    value for the default seed is pinned to the printed digit. A build
    whose f32 ISA has no pin fails the check rather than skip it."""
    prov = report["provenance"]
    mk = prov.get("mean_makespan")
    if smoke or seed != DEFAULT_SEED or mk is None:
        return None
    isa = prov.get("f32_isa", "")
    by_isa = pins.get(report["workload"], {})
    pinned = by_isa.get(isa, by_isa.get("any"))
    if pinned is None:
        return {"name": "pin.mean_makespan", "ok": False,
                "detail": f"no pin for f32 ISA {isa}: measure one and add it "
                          f"to perfbench/workloads.json"}
    got = f"{float(mk):.6f}"
    return {"name": "pin.mean_makespan", "ok": got == pinned,
            "detail": f"{got} vs pinned {pinned}"}


def check_metrics(report, wanted):
    """Every emitted metric that BENCHMARK.json names must carry its unit
    and direction; returns the failed checks."""
    bad = []
    for m in report["metrics"]:
        spec = wanted.get(m["name"])
        if spec and (m["unit"] != spec["unit"] or m["better"] != spec["better"]):
            bad.append({"name": "metric." + m["name"], "ok": False,
                        "detail": f"emitted {m['unit']}/{m['better']}, "
                                  f"BENCHMARK.json says {spec['unit']}/{spec['better']}"})
    return bad


def print_table(report, wanted):
    emitted = {m["name"]: m for m in report["metrics"]}
    for m in report["metrics"]:
        print(f"{m['name']:34} {m['value']:>16.6g} {m['unit']:8} {m['better']:7} "
              f"n={m['samples']:<9} {m['note']}")
    for name, spec in wanted.items():
        if name not in emitted:
            print(f"{name:34} {0:>16} {spec['unit']:8} {spec['better']:7} "
                  f"n=0         layer not on this workload's path")
    for c in report["checks"]:
        print(f"check {c['name']:40} {'ok' if c['ok'] else 'FAILED'} {c['detail']}")
    for k, v in report["provenance"].items():
        print(f"provenance {k} = {v}")


def run_one(args, bench, pins, git_sha, digest):
    key = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m for m in bench[key]}
    report = run_binary(args.workload, args.seed, args.seconds, args.trace,
                        args.smoke, git_sha)
    report["provenance"]["src_digest"] = digest
    extra = check_metrics(report, wanted)
    pin = pin_check(report, pins, args.seed, args.smoke)
    if pin:
        extra.append(pin)
    if not args.trace:
        missing = [n for n in wanted if n not in {m["name"] for m in report["metrics"]}]
        if missing:
            extra.append({"name": "metric.missing", "ok": False, "detail": ", ".join(missing)})
    report["checks"] += extra
    report["correct"] = all(c["ok"] for c in report["checks"])
    print_table(report, wanted)

    runs = ROOT / ".bench_build" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = dict(report, seed=args.seed, trace=args.trace, seconds=args.seconds,
                  smoke=args.smoke, finished=time.time())
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-t{int(args.trace)}-s{args.seed}-{stamp}-{os.getpid()}.json"
    with open(runs / name, "w") as f:
        json.dump(record, f, indent=1)

    emitted = {m["name"]: m for m in report["metrics"]}
    metrics = {}
    for n, spec in wanted.items():
        value = emitted[n]["value"] if n in emitted else 0.0
        metrics[n] = {"value": value, "unit": spec["unit"]}
    result = {"correct": report["correct"], "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0 if report["correct"] else 1


def smoke(bench, pins, git_sha, digest):
    """Every workload at minimal size, untraced then traced: every metric of
    BENCHMARK.json must be emitted with its unit and direction (per-layer
    metrics by at least one workload), every check must pass, and the
    traced pass must reproduce the untraced makespans."""
    problems = []
    per_layer_seen = set()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    for w in WORKLOADS:
        makespans = {}
        for trace in (False, True):
            report = run_binary(w, DEFAULT_SEED, 0.3, trace, True, git_sha)
            wanted = layer if trace else e2e
            got = {m["name"]: m for m in report["metrics"]}
            for c in report["checks"] + check_metrics(report, wanted):
                if not c["ok"]:
                    problems.append(f"{w} trace={int(trace)}: {c['name']}: {c['detail']}")
            if trace:
                per_layer_seen |= set(got) & set(layer)
            else:
                for n in e2e:
                    if n not in got:
                        problems.append(f"{w}: end-to-end metric {n} not emitted")
            makespans[trace] = report["provenance"].get("mean_makespan")
            print(f"smoke {w:8} trace={int(trace)} metrics={len(got):3} "
                  f"checks={len(report['checks'])} mean_makespan={makespans[trace]}")
        if makespans[False] != makespans[True]:
            problems.append(f"{w}: traced mean_makespan {makespans[True]} != "
                            f"untraced {makespans[False]}")
    for n in layer:
        if n not in per_layer_seen:
            problems.append(f"per-layer metric {n} emitted by no workload")
    for p in problems:
        print("smoke FAILED " + p)
    print("smoke " + ("ok" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: every workload at minimal size")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not 0.0 < args.seconds <= 600.0:
        ap.error("--seconds must be in (0, 600]")

    bench = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(HERE / "workloads.json")["pins"]["mean_makespan"]
    build()
    git_sha, digest = source_identity()
    if args.smoke:
        return smoke(bench, pins, git_sha, digest)
    return run_one(args, bench, pins, git_sha, digest)


if __name__ == "__main__":
    sys.exit(main())
