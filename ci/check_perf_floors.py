#!/usr/bin/env python3
"""Perf-regression smoke gate.

Runs the dispatch microbenchmark and the string-predicate benchmark in
--smoke mode and checks the performance *ratios* they report (fused-tier
speedup over the plain switch interpreter, SIMD speedup over the forced
scalar tier) against the floors in ci/perf_floors.json. Ratios are taken
within a single run, or (SIMD vs scalar, which needs two runs) as the
median of interleaved run pairs, so the absolute speed of the CI machine
cancels out;
the floors are deliberately tolerant (see the JSON) to survive noisy
shared runners while still catching the failure modes that matter: a
superinstruction tier silently stops firing, the SIMD dispatch falls back
to scalar, or a translator change pessimizes the IR the JIT compiles.

Usage: check_perf_floors.py [build_dir]   (default: build)

Exits 0 on pass or on non-x86 hosts (the SIMD tiers and the tuned floors
are x86-specific); exits 1 with a per-rule report on regression. A failing
micro_vm_dispatch rule is retried once with a fresh benchmark run before it
counts.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

# SIMD-vs-scalar string_predicates ratios compare two separate --smoke
# runs. One unpaired run per tier spread 1.14-1.78 on one host, so the gate
# takes the median over this many interleaved (native, scalar) run pairs.
SIMD_PAIRS = 5


def run_json_lines(cmd, cwd, env=None, failures=None):
    """Runs cmd and returns the parsed JSON-line records from its stdout.
    A non-zero exit raises, or, when `failures` is given, is appended to it
    and the records are still returned."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        cmd, cwd=cwd, env=full_env, stdout=subprocess.PIPE,
        check=failures is None, text=True, timeout=600)
    if proc.returncode != 0:
        env_vars = " ".join(f"{k}={v}" for k, v in (env or {}).items())
        failures.append(f"{env_vars} {' '.join(cmd)}: exit {proc.returncode}")
    records = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                pass
    return records


def find(records, **keys):
    for r in records:
        if all(r.get(k) == v for k, v in keys.items()):
            return r
    return None


def check_micro(build, rules, failures):
    bench = os.path.join("bench", "micro_vm_dispatch")
    recs = run_json_lines([bench, "--smoke"], cwd=build)
    retried = None
    for rule in rules:
        # Four rule shapes: fused-tier speedups over the switch baseline,
        # and the three observability overhead floors (traced/untraced,
        # profiled/unprofiled, and instrumented/bare resource accounting).
        if "min_speedup_vs_switch" in rule:
            field, want = "speedup_vs_switch", rule["min_speedup_vs_switch"]
        elif "min_ratio_vs_untraced" in rule:
            field, want = "ratio_vs_untraced", rule["min_ratio_vs_untraced"]
        elif "min_ratio_vs_bare" in rule:
            field, want = "ratio_vs_bare", rule["min_ratio_vs_bare"]
        else:
            field, want = ("ratio_vs_unprofiled",
                           rule["min_ratio_vs_unprofiled"])
        key = dict(kernel=rule["kernel"], config=rule["config"])
        rec = find(recs, **key)
        got = rec[field] if rec else 0.0
        if got < want:
            # One retry with a fresh run: --smoke budgets are short enough
            # that a scheduler hiccup can dent a single measurement.
            if retried is None:
                retried = run_json_lines([bench, "--smoke"], cwd=build)
            rec2 = find(retried, **key)
            got = max(got, rec2[field] if rec2 else 0.0)
        status = "ok" if got >= want else "FAIL"
        print(f"  [{status}] micro_vm_dispatch {rule['kernel']}/"
              f"{rule['config']}: {field} {got:.2f} (floor {want})")
        if got < want:
            failures.append(f"micro_vm_dispatch {key}: {got:.2f} < {want}")


def paired_simd_ratios(build, rules, failures):
    """Per rule, the scalar/native ns_per_row ratio of each of SIMD_PAIRS
    (native, scalar) run pairs. The tier that runs first alternates from
    pair to pair, so drift over the measurement (thermal, a noisy
    neighbour) does not favour either tier."""
    bench = [os.path.join("bench", "string_predicates"), "--smoke"]
    ratios = [[] for _ in rules]
    for pair in range(SIMD_PAIRS):
        runs = {}
        order = ("native", "scalar") if pair % 2 == 0 else ("scalar", "native")
        for tier in order:
            env = {"AQE_SIMD": "scalar"} if tier == "scalar" else None
            runs[tier] = run_json_lines(bench, cwd=build, env=env,
                                        failures=failures)
        for i, rule in enumerate(rules):
            key = dict(workload=rule["workload"], path=rule["path"],
                       engine=rule["engine"])
            a, b = find(runs["native"], **key), find(runs["scalar"], **key)
            ratios[i].append(b["ns_per_row"] / a["ns_per_row"]
                             if a and b else 0.0)
    return ratios


def check_strings_simd(build, simd, rules, probe, failures):
    if simd and simd[0].get("simd") == "scalar":
        print("  [skip] string_predicates: no SIMD tier on this CPU")
        return
    # Pure-kernel floor: the default run's summary carries the directly
    # measured BitmapProbeSelI32 speedup (active tier vs forced scalar).
    summary = next((r["summary"] for r in simd if "summary" in r), {})
    got = summary.get("probe_kernel_speedup", 0.0)
    want = probe["min_speedup"]
    status = "ok" if got >= want else "FAIL"
    print(f"  [{status}] string_predicates probe kernel: "
          f"simd speedup {got:.2f} (floor {want})")
    if got < want:
        failures.append(f"string_predicates probe_kernel: {got:.2f} < {want}")
    ratios = paired_simd_ratios(build, rules, failures)
    for rule, pairs in zip(rules, ratios):
        want = rule["min_scalar_over_simd_ns"]
        key = dict(workload=rule["workload"], path=rule["path"],
                   engine=rule["engine"])
        got = statistics.median(pairs)
        status = "ok" if got >= want else "FAIL"
        print(f"  [{status}] string_predicates {rule['workload']}/"
              f"{rule['path']}/{rule['engine']}: simd speedup median {got:.2f}"
              f" of {len(pairs)} pairs, spread {min(pairs):.2f}-"
              f"{max(pairs):.2f} (floor {want})")
        if got < want:
            failures.append(f"string_predicates {key}: median {got:.2f} "
                            f"< {want}")


def check_strings_index(simd, rules, failures):
    """Index access-path floors (src/index/): within-run ratios from the
    default string_predicates run's summary record. Unlike the SIMD floors
    these hold on any CPU — pruning is a scheduling decision, not a kernel
    tier — so there is no scalar-host skip."""
    summary = next((r["summary"] for r in simd if "summary" in r), {})
    checks = [
        ("index_over_call", summary.get("index_over_call", 0.0),
         rules["min_index_over_call"], True),
        ("zonemap_selected_fraction",
         summary.get("zonemap_selected_fraction", 1.0),
         rules["max_zonemap_selected_fraction"], False),
        ("zonemap_speedup", summary.get("zonemap_speedup", 0.0),
         rules["min_zonemap_speedup"], True),
    ]
    for name, got, bound, is_floor in checks:
        ok = got >= bound if is_floor else got < bound
        status = "ok" if ok else "FAIL"
        rel = "floor" if is_floor else "ceiling"
        print(f"  [{status}] string_predicates index {name}: "
              f"{got:.2f} ({rel} {bound})")
        if not ok:
            failures.append(
                f"string_predicates index {name}: {got:.2f} vs {rel} {bound}")


def load_metrics_snapshot(path):
    """Loads and structurally validates a MetricsSnapshot::ToJson() dump.

    Shared with ci/check_metrics_endpoint.py. Raises ValueError on any
    structural problem: the C++ serializer promises unique keys per
    section (sections are emitted in a fixed order: registry first, then
    the engine's own counters) and, per histogram, ascending
    [upper_bound, count] buckets whose counts sum to the total count.
    """
    def no_dupes(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"{path}: duplicate keys {dupes}")
        return dict(pairs)

    with open(path) as f:
        # decode errors propagate: malformed is fatal
        snap = json.load(f, object_pairs_hook=no_dupes)
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snap.get(section), dict):
            raise ValueError(f"{path}: missing object {section!r}")
    for name, h in snap["histograms"].items():
        for field in ("count", "sum", "max", "mean", "p50", "p95", "p99",
                      "buckets"):
            if field not in h:
                raise ValueError(f"{path}: histogram {name!r} lacks {field!r}")
        buckets = h["buckets"]
        uppers = [b[0] for b in buckets]
        if uppers != sorted(uppers):
            raise ValueError(
                f"{path}: histogram {name!r} buckets not ascending: {uppers}")
        if sum(b[1] for b in buckets) != h["count"]:
            raise ValueError(
                f"{path}: histogram {name!r} bucket counts sum to "
                f"{sum(b[1] for b in buckets)}, expected count {h['count']}")
    return snap


def check_observability_json(build, failures):
    """Round-trips the last bench run's metrics dump, when one exists (the
    endpoint-check step produces it; earlier steps may run first)."""
    path = os.path.join(build, "BENCH_observability.json")
    if not os.path.exists(path):
        print("  [skip] BENCH_observability.json not present yet")
        return
    try:
        snap = load_metrics_snapshot(path)
        print(f"  [ok] BENCH_observability.json: {len(snap['counters'])} "
              f"counters, {len(snap['histograms'])} histograms round-trip")
    except (ValueError, json.JSONDecodeError) as e:
        print(f"  [FAIL] BENCH_observability.json: {e}")
        failures.append(f"observability json: {e}")


def main():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        print(f"perf gate: skipping on {platform.machine()} (x86-only floors)")
        return 0
    build = sys.argv[1] if len(sys.argv) > 1 else "build"
    floors_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "perf_floors.json")
    with open(floors_path) as f:
        floors = json.load(f)
    failures = []
    print("perf gate: micro_vm_dispatch ratios")
    check_micro(build, floors["micro_vm_dispatch"], failures)
    # One default-mode string_predicates run feeds the within-run floors
    # (the probe-kernel SIMD speedup and the index access-path ratios); the
    # SIMD-vs-scalar ratios come from their own interleaved run pairs.
    strings = run_json_lines(
        [os.path.join("bench", "string_predicates"), "--smoke"], cwd=build)
    print("perf gate: string_predicates SIMD-vs-scalar ratios")
    check_strings_simd(build, strings, floors["string_predicates_simd"],
                       floors["string_predicates_probe_kernel"], failures)
    print("perf gate: string_predicates index access-path ratios")
    check_strings_index(strings, floors["string_predicates_index"], failures)
    print("perf gate: observability snapshot round-trip")
    check_observability_json(build, failures)
    if failures:
        print("perf gate FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
