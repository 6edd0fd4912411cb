#!/usr/bin/env python3
"""Builds the moaflat benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tpcd_power --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build (Release, CMake + Ninja when available). Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. The exit code is the benchmark's: non-zero when the build fails,
an answer is wrong, or a request fails.

--self-test checks that the service MIL texts analyze clean and reproduce
the QuerySuite checksums, that BENCHMARK.json lists exactly the metrics the
benchmark prints, and that a run with a deliberately wrong expected answer
fails on every workload.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tpcd_power", "service_mix", "durable_ingest"]
RUN_TIMEOUT_S = 175


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def run(binary, args, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        p = subprocess.run([binary] + args + ["--outdir", build_dir()],
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, []
    lines = p.stdout.splitlines()
    if echo:
        sys.stdout.write(p.stdout)
        sys.stdout.flush()
    return p.returncode, lines


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def self_test(binary):
    ok = True

    def check(cond, what):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        ok = ok and cond

    code, _ = run(binary, ["--self-test"], echo=True)
    check(code == 0, "service MIL texts analyze clean and match QuerySuite")

    listed = json.loads(subprocess.run([binary, "--list-metrics"],
                                       stdout=subprocess.PIPE,
                                       text=True).stdout)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for key in ("end_to_end", "per_layer"):
        want = [m["name"] for m in spec[key]]
        have = [m["name"] for m in listed[key]]
        check(want == have, f"BENCHMARK.json {key} matches the benchmark's table")
    check([w["name"] for w in spec["workloads"]] == WORKLOADS,
          "BENCHMARK.json names the three workloads")

    for wl in WORKLOADS:
        base = ["--workload", wl, "--seed", "7", "--seconds", "2", "--trace", "0"]
        code, lines = run(binary, base, echo=False)
        res = last_json(lines)
        check(code == 0 and res is not None and res["correct"]
              and res["failed"] == 0, f"{wl}: a short run is correct")
        code, lines = run(binary, base + ["--corrupt-expected"], echo=False)
        res = last_json(lines)
        check(code != 0 and res is not None and not res["correct"],
              f"{wl}: a wrong expected answer fails the run")
    return 0 if ok else 1


def main():
    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test(binary)
    code, _ = run(binary, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
