#!/usr/bin/env python3
"""Builds and runs the engine benchmark (perfbench/perfbench.cc).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # the benchmark's own unit tests

The engine and the benchmark are built in Release under .bench_build/ (the
first run builds from source; later runs rebuild only what changed). Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. The engine's environment overrides are removed before the run, so
the engine measures its defaults. --trace 1 also writes the traced run's
spans and per-plan latencies to .bench_build/traces/.

Workloads: adhoc-sf0.1, repeat-sf0.01, scan-sf1 (see perfbench.cc).
BENCHMARK.json gates the first two. scan-sf1 runs by hand: Q18's engine
steps at SF 1 take 200-2900 ms between identical runs, so its figures
spread beyond any usable bound, and its six SF-1 set-ups take about 90 s.
Seed 1 is the development seed; claims are checked on the hold-out seed 2.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ENGINE_ENV_OVERRIDES = ("AQE_CALIBRATE", "AQE_SIMD", "AQE_PROFILE_HZ",
                        "AQE_TRACE_RING_EVENTS", "AQE_VM_PROFILE")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, target):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release",
                        *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target,
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main(argv):
    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "engine" / "query_engine.h").is_file():
        fail(f"{root} is not a source checkout of the engine "
             "(CMakeLists.txt and src/ are missing)")
    build_dir = root / ".bench_build" / "perfbench"
    env = {k: v for k, v in os.environ.items()
           if k not in ENGINE_ENV_OVERRIDES}

    if argv == ["--test"]:
        try:
            build(root, build_dir, "perfbench_test")
        except subprocess.CalledProcessError:
            fail("build failed")
        sys.exit(subprocess.run([str(build_dir / "perfbench_test")],
                                env=env).returncode)

    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>   (or: run.py --test)")
    try:
        build(root, build_dir, "perfbench")
    except subprocess.CalledProcessError:
        fail("build failed")

    cmd = [str(build_dir / "perfbench")] + argv
    if args["--trace"] == "1":
        trace_dir = root / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args['--workload']}-seed"
                                               f"{args['--seed']}.json")]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
