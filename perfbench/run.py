#!/usr/bin/env python3
"""Builds and runs the LegoDB benchmark driver (legobench).

    python3 perfbench/run.py --workload design|serve|ingest --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first run
configures and builds a Release tree under .bench_build/ (about a minute
on four cores); later runs only check that it is up to date. The driver's
report and, for traced runs, its spans go to .bench_build/out/.

The last line of standard output is the run's JSON result. Unknown flags
and malformed values exit 2; a failed build exits 3; the driver's own exit
code (1 when a correctness gate fails) is passed through.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "legobench"
BINARY = BUILD_DIR / "legobench"

# Generous ceiling on one driver run beyond its measuring time: set-up,
# correctness gates and the traced run's probes take a few seconds.
RUN_SLACK_SECONDS = 120


def whole_number(limit):
    def parse(text):
        if not re.fullmatch(r"[0-9]{1,20}", text) or int(text) > limit:
            raise argparse.ArgumentTypeError(
                f"want a whole number in [0, {limit}], got {text!r}")
        return int(text)
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one LegoDB benchmark workload.", allow_abbrev=False)
    parser.add_argument("--workload", required=True,
                        choices=["design", "serve", "ingest"])
    parser.add_argument("--seed", required=True, type=whole_number(2**64 - 1))
    parser.add_argument("--seconds", required=True, type=whole_number(3600))
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def fail(code, message, log=None):
    print(f"run.py: {message}", file=sys.stderr)
    if log is not None and log.exists():
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"LegoDB sources not found under {ROOT}/src")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n"
                           not in cache.read_text(errors="replace")):
        shutil.rmtree(BUILD_DIR)  # configured for a checkout elsewhere
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_ROOT / "build.log"
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "legobench", "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                out.flush()
                fail(3, "build failed: " + " ".join(step), log)


def revision():
    """The git revision when ROOT is a git work tree, else a digest of the
    sources the driver is built from."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=30)
            if rev.returncode == 0 and rev.stdout.strip():
                return "git:" + rev.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return [m["name"] for m in data["per_layer" if trace else "end_to_end"]]


def main(argv):
    args = parse_args(argv)
    build()
    out_dir = BUILD_ROOT / "out"
    tmp_dir = BUILD_ROOT / "tmp"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(out_dir), "--revision", revision()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                             stdin=subprocess.DEVNULL,
                             timeout=args.seconds + RUN_SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        fail(1, "legobench did not finish in time and was stopped")
    lines = run.stdout.splitlines()
    if run.returncode == 0:
        # The result must report exactly the declared metrics.
        declared = declared_metrics(args.trace == "1")
        reported = list(json.loads(lines[-1])["metrics"]) if lines else []
        if declared is not None and reported != declared:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(4, f"reported metrics {reported} differ from BENCHMARK.json "
                    f"{declared}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
