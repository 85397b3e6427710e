#!/usr/bin/env python3
"""Runs the SemTree benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, seed 1
    python3 perfbench/run.py --selftest       # the benchmark's own tests
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root. It builds perfbench/ together with the
library under src/ into .bench_build/, runs the workload, checks its
answers against a linear scan, and prints every metric by name with its
unit. Reports and spans go to .bench_out/. The last line of standard
output is the result as one JSON object; the exit code is 0 only when
every answer was correct.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spec  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; False on any failure."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_sha256():
    """Digest of every source file the benchmark builds from."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_workload(name, seed, seconds, trace):
    """Runs one workload; returns its validated report or None."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    out = OUT_DIR / f"{stem}.json"
    out.unlink(missing_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    if trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{stem}.tsv")]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench: {name} did not finish in {RUN_TIMEOUT_S} s")
        return None
    if code not in (0, 1) or not out.exists():
        log(f"perfbench: {name} exited with {code} and no report")
        return None
    report = json.loads(out.read_text())
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    units = {m["name"]: m["unit"] for m in declared}
    got = report["metrics"]
    if set(got) != set(units):
        log(f"perfbench: {name} reported {sorted(set(got) ^ set(units))} "
            "against the declaration")
        return None
    if any(not isinstance(v, (int, float)) or not math.isfinite(v)
           for v in got.values()):
        log(f"perfbench: {name} reported a non-finite metric")
        return None
    report["metrics"] = {k: {"value": got[k], "unit": units[k]}
                         for k in units}
    report["config"].update({
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    })
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(name, report):
    cfg = report["config"]
    print(f"== {name}  seed={cfg['seed']:.0f}  seconds={cfg['seconds']:.0f}"
          f"  trace={cfg['trace']:.0f}")
    print("config: " + "  ".join(
        f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in sorted(cfg.items())))
    samples = report["samples"]
    for k, m in report["metrics"].items():
        note = ""
        if k == "setup_s":
            note = f"  (median of {samples[k]:.0f} builds)"
        elif k in samples:
            note = (f"  (median of {cfg['blocks']:.0f} blocks of "
                    f"{cfg['block_ops']:.0f} ops; n={samples[k]:.0f})")
        print(f"  {k:34s} {m['value']:14.6g} {m['unit']}{note}")
    pooled = report["pooled"]
    print(f"  whole window: {pooled['throughput_qps']:.6g} ops/s, "
          f"p50 {pooled['p50_us']:.6g} us, p99 {pooled['p99_us']:.6g} us")
    tail = report["tail"]
    print(f"  tail: p{tail['percentile']:g} = {tail['value_us']:.6g} us "
          f"(n={tail['samples']:.0f})")
    frac = report["failed"] / max(report["attempted"], 1)
    print(f"  correct={report['correct']}  attempted={report['attempted']:.0f}"
          f"  failed={report['failed']:.0f}  fail_frac={frac:.6g}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def selftest():
    binary = BUILD_DIR / "perfbench_selftest"
    ok = subprocess.run([str(binary)]).returncode == 0
    suite = unittest.defaultTestLoader.discover(str(HERE), "test_*.py")
    return unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() \
        and ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args()

    if args.write_benchmark_json:
        bad = spec.problems()
        if bad:
            log("\n".join(bad))
            return 1
        doc = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(doc)
        return 0
    if not build():
        log("perfbench: build failed")
        return 1
    if args.selftest:
        return 0 if selftest() else 1

    names = [args.workload] if args.workload else \
        [w["name"] for w in spec.WORKLOADS]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace)
        if report is None:
            return 1
        print_report(name, report)
        correct &= report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if args.workload else name + "."
        metrics.update({prefix + k: v for k, v in report["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
