#!/usr/bin/env python3
"""Paper-workload benchmark: DDT+ on pcnet, PROFS on urlparse and a
two-process c111 drain, each to a deterministic budget.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the repository root.  The script builds perfbench/bench.exe with
dune, then runs one workload iteration per fresh process until --seconds
is used up, checks every iteration's analysis outputs against the values
recorded in perfbench/expected.json for the seed's input variant, and
prints one JSON object as its last line: the end-to-end metrics (medians
over the untraced iterations) with --trace 0, the per-layer metrics with
--trace 1 (which alternates untraced and traced iterations).  --record
re-runs every variant once and rewrites expected.json.

Why these workloads (paper section 6.1), and what each is expected to move:
  ddt_pcnet       the solver dominates it (~30 queries per path, most of
                  the SAT-core traffic).  Solver front-end and core changes
                  should move paths_per_s and saturation_s here; case
                  generation moves cases_per_s / case_ms.* and total_s.
  profs_urlparse  many short paths: fork, execute and per-path fixed costs
                  carry much of the load and feasibility probes mostly hit
                  the query cache.  Executor, DBT and cache-path changes
                  move paths_per_s here; the input solve per path is the
                  solver's model-extraction use.
  c111_dist       the only workload long enough to amortise lib/dist fixed
                  costs: a full drain of 16,184 paths over 2 fork-server
                  worker processes.  Transport and coordinator changes move
                  paths_per_s here and nothing on the serial workloads.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# Scratch space for the build and the measured processes, so that nothing
# is written outside the checkout; removed when the run ends.
TMP = ".perfbench_tmp"

# The seed picks one of these recorded input variants (the receive frame
# injected at boot); every variant's outputs are recorded, so every run is
# checked absolutely whatever seed it is given.
NUM_VARIANTS = 4

# Deterministic budgets (guest instructions; c111_dist drains) and the
# trace ring capacity that keeps a traced run lossless.
WORKLOADS = {
    "ddt_pcnet": {"budget": 300_000, "trace_capacity": 262_144},
    "profs_urlparse": {"budget": 300_000, "trace_capacity": 262_144},
    "c111_dist": {"budget": 0, "trace_capacity": 262_144},
}

# Analysis outputs that must equal the recorded values.  Layer counts such
# as solver queries are reported, never checked: an optimisation may
# legitimately move them.
CHECKED = {
    "ddt_pcnet": ["paths", "instructions", "forks", "statuses", "case_digest",
                  "unit_coverage", "bugs"],
    "profs_urlparse": ["paths", "instructions", "forks", "statuses",
                       "profile_digest", "misses", "unit_coverage"],
    "c111_dist": ["paths", "instructions", "forks", "statuses",
                  "unit_coverage"],
}

END_TO_END = [
    ("setup_s", "s"),
    ("paths_per_s", "1/s"),
    ("saturation_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MiB"),
]

QUERY_CLASSES = ["model_hit", "unsat_hit", "cold_sat", "cold_unsat",
                 "inc_partial", "inc_full"]

PER_LAYER = (
    [
        ("setup.build_s", "s"),
        ("setup.engine_s", "s"),
        ("core.explore_s", "s"),
        ("core.paths", "count"),
        ("core.forks", "count"),
        ("core.instructions", "count"),
        ("core.instr_per_s", "1/s"),
        ("core.execute_s", "s"),
        ("core.fork_s", "s"),
        ("core.concretize_s", "s"),
        ("core.unattributed_s", "s"),
        ("core.max_live_states", "count"),
        ("core.footprint_bytes", "bytes"),
        ("dbt.translate_s", "s"),
        ("dbt.tb_hit_rate", "frac"),
        ("dbt.tb_misses", "count"),
        ("solver.queries", "count"),
        ("solver.queries_per_path", "count"),
        ("solver.busy_s", "s"),
        ("solver.cache_hit_rate", "frac"),
        ("solver.sat_queries", "count"),
        ("solver.inc_reuse_rate", "frac"),
        ("solver.unknowns", "count"),
        ("solver.max_query_ms", "ms"),
    ]
    + [(f"solver.{c}.{k}", u) for c in QUERY_CLASSES
       for k, u in [("count", "count"), ("busy_s", "s"), ("us_p50", "us"),
                    ("us_p98", "us")]]
    + [
        ("casegen.count", "count"),
        ("casegen.busy_s", "s"),
        ("casegen.check_failures", "count"),
        ("cases_per_s", "1/s"),
        ("case_ms.p50", "ms"),
        ("case_ms.p98", "ms"),
        ("plugins.unit_coverage", "count"),
        ("plugins.bugs", "count"),
        ("cachesim.i1_misses", "count"),
        ("cachesim.d1_misses", "count"),
        ("cachesim.l2_misses", "count"),
        ("cachesim.tlb_misses", "count"),
        ("cachesim.page_faults", "count"),
        ("dist.spawn_s", "s"),
        ("dist.worker_busy_frac", "frac"),
        ("dist.worker_wait_s", "s"),
        ("dist.coordinator_cpu_s", "s"),
        ("dist.transport_bytes", "bytes"),
        ("dist.delta_ratio", "frac"),
        ("dist.steals", "count"),
        ("dist.requeues", "count"),
        ("dist.retransmits", "count"),
        ("obs.trace_events", "count"),
        ("obs.trace_dropped", "count"),
        ("obs.trace_overhead_frac", "frac"),
        ("failed_frac", "frac"),
    ]
)

SERIAL_PHASES = ["core.execute_s", "core.fork_s", "core.concretize_s",
                 "core.steal_s", "dbt.translate_s", "solver.busy_s"]

# Wall-clock limits: the whole run must end within 180 s.
RUN_LIMIT_S = 170.0
MIN_ITERATIONS = {0: 3, 1: 2}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for f in ("dune-project", os.path.join("lib", "core"),
              os.path.join("perfbench", "dune")):
        if not os.path.exists(f):
            die(f"{f} not found: run from the root of a full source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "perfbench/bench.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0:
        die("build failed")


def run_iteration(workload, variant, traced, timeout):
    """One workload iteration in a fresh process (and process group, so
    fork-server workers are reaped with it).  Returns the parsed result or
    None when the process failed."""
    spec = WORKLOADS.get(workload, {"budget": 0, "trace_capacity": 0})
    argv = [EXE, workload, str(variant), "1" if traced else "0",
            str(spec["budget"]), str(spec["trace_capacity"])]
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        out = b""
    finally:
        stop_group(p)
    if p.returncode != 0 or not out.strip():
        return None
    try:
        return json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def stop_group(p):
    """Kill whatever is left of [p]'s process group and wait until every
    member has ended (orphaned members are reaped by init)."""
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    p.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(p.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def check(workload, r, expected):
    """Problems with one iteration's outputs, as strings (empty: correct)."""
    problems = []
    want = expected.get("outputs", {})
    for key in CHECKED[workload]:
        if r["outputs"].get(key) != want.get(key):
            problems.append(f"{key}: got {r['outputs'].get(key)!r}, "
                            f"recorded {want.get(key)!r}")
    for key, n in r["failures"].items():
        if n:
            problems.append(f"{key}: {n}")
    if r["traced"] and r["trace"]["trace_dropped"]:
        problems.append(f"trace dropped {r['trace']['trace_dropped']} events")
    if workload != "c111_dist":
        # Accounting closure: phase self-times plus the unattributed
        # remainder are the exploration wall time, and the remainder is
        # not negative.
        layers = r["layers"]
        self_s = sum(layers[k] for k in SERIAL_PHASES)
        wall = r["times"]["explore_s"]
        if abs(self_s + layers["core.unattributed_s"] - wall) > 1e-6 \
                or layers["core.unattributed_s"] < -1e-3:
            problems.append(f"accounting: self-times {self_s:.6f}s vs "
                            f"explore wall {wall:.6f}s")
    return problems


def end_to_end(r):
    t = r["times"]
    return {
        "setup_s": t["build_s"] + t["engine_s"],
        "paths_per_s": r["outputs"]["paths"] / t["explore_s"],
        "saturation_s": t["saturation_s"],
        "total_s": t["total_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def per_layer(r):
    """Every per-layer metric of one untraced iteration (0 where the
    workload does not exercise the layer)."""
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    m.update({k: v for k, v in r["layers"].items() if k in m})
    t, c, o = r["times"], r["cases"], r["outputs"]
    m["setup.build_s"] = t["build_s"]
    m["setup.engine_s"] = t["engine_s"]
    m["core.explore_s"] = t["explore_s"]
    if c["count"]:
        m["casegen.count"] = c["count"]
        m["casegen.busy_s"] = c["busy_s"]
        m["casegen.check_failures"] = c["check_failures"]
        m["cases_per_s"] = c["count"] / c["busy_s"]
    m["plugins.unit_coverage"] = o["unit_coverage"]
    m["plugins.bugs"] = len(o.get("bugs", []))
    for k, v in o.get("misses", {}).items():
        m[f"cachesim.{k}"] = v
    failed = sum(r["failures"].values())
    m["failed_frac"] = failed / max(r["attempted"], 1)
    return m


def case_latency(runs):
    """p50 and p98 of one path's case-generation time, over the case
    samples of all [runs] pooled (so p98 has enough samples beyond it)."""
    ms = sorted(t for r in runs for t in r["cases"]["ms"])
    if not ms:
        return {"case_ms.p50": 0.0, "case_ms.p98": 0.0}, 0
    pick = lambda q: ms[min(len(ms) - 1, int(q * len(ms)))]
    return {"case_ms.p50": pick(0.50), "case_ms.p98": pick(0.98)}, len(ms)


def traced_layer(r):
    tr = r["trace"]
    m = {"obs.trace_events": tr["trace_events"],
         "obs.trace_dropped": tr["trace_dropped"]}
    for cls, v in tr["query_classes"].items():
        for k in ("count", "busy_s", "us_p50", "us_p98"):
            m[f"solver.{cls}.{k}"] = v[k]
    return m


def median_of(rows, name):
    return statistics.median(row[name] for row in rows)


def measure(workload, seed, seconds, trace):
    expected_all = load_expected()
    variant = seed % NUM_VARIANTS
    expected = expected_all.get(workload, {}).get(str(variant))
    if expected is None:
        die(f"no recorded outputs for {workload} variant {variant}")
    if expected.get("budget") != WORKLOADS[workload]["budget"]:
        die(f"{workload}: expected.json was recorded at another budget")
    started = time.monotonic()
    results, problems = [], []
    attempted = failed = 0
    durations = []
    while True:
        n = len(results)
        traced = bool(trace) and n % 2 == 1
        elapsed = time.monotonic() - started
        t0 = time.monotonic()
        r = run_iteration(workload, variant, traced, RUN_LIMIT_S - elapsed)
        durations.append(time.monotonic() - t0)
        if r is None:
            problems.append(f"iteration {n}: bench process failed")
            attempted += 1
            failed += 1
            break
        attempted += r["attempted"]
        failed += sum(r["failures"].values())
        problems += [f"iteration {n}: {p}"
                     for p in check(workload, r, expected)]
        results.append(r)
        print(f"iteration {n}{' traced' if traced else ''}: "
              + " ".join(f"{k}={v:.4f}" for k, v in end_to_end(r).items()),
              file=sys.stderr)
        elapsed = time.monotonic() - started
        # Stop when the next iteration would end past --seconds.
        if len(results) >= MIN_ITERATIONS[trace] and \
                elapsed + statistics.median(durations) > seconds:
            break
        if elapsed + max(durations) > RUN_LIMIT_S:
            break
    plain = [r for r in results if not r["traced"]]
    traced_runs = [r for r in results if r["traced"]]
    for p in problems:
        print(f"FAIL {workload}: {p}", file=sys.stderr)
    print(f"{workload}: seed {seed} (variant {variant}), "
          f"{len(plain)} untraced + {len(traced_runs)} traced iterations, "
          f"{len(problems)} problems")
    metrics = {}
    if plain:
        if trace:
            rows = [per_layer(r) for r in plain]
            values = {name: median_of(rows, name) for name, _ in PER_LAYER}
            latency, samples = case_latency(plain)
            values.update(latency)
            print(f"  case_ms samples: {samples}")
            if traced_runs:
                trows = [traced_layer(r) for r in traced_runs]
                for name in trows[0]:
                    values[name] = median_of(trows, name)
                values["obs.trace_dropped"] = max(
                    row["obs.trace_dropped"] for row in trows)
                values["obs.trace_overhead_frac"] = (
                    statistics.median(r["times"]["explore_s"]
                                      for r in traced_runs)
                    / values["core.explore_s"] - 1.0)
            spec = PER_LAYER
        else:
            rows = [end_to_end(r) for r in plain]
            values = {name: median_of(rows, name) for name, _ in END_TO_END}
            spec = END_TO_END
        for name, unit in spec:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:32s} {values[name]:16.6f} {unit}")
        if not trace:
            c = plain[0]["cases"]["count"]
            print(f"  case samples per iteration: {c}; "
                  f"iterations: {len(plain)}")
    print(json.dumps({"correct": not problems and bool(plain),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {EXPECTED}: {e}")


def record():
    """Run every workload once per input variant and write the outputs the
    benchmark checks.  c111_dist is recorded from a serial drain in one
    process, which the distributed drain must reproduce."""
    rec = {}
    for workload in WORKLOADS:
        rec[workload] = {}
        for variant in range(NUM_VARIANTS):
            source = "c111_serial" if workload == "c111_dist" else workload
            r = run_iteration(source, variant, False, RUN_LIMIT_S)
            if r is None or any(r["failures"].values()):
                die(f"recording {source} variant {variant} failed")
            outputs = {k: r["outputs"][k] for k in CHECKED[workload]}
            rec[workload][str(variant)] = {
                "budget": WORKLOADS[workload]["budget"],
                "source": source,
                "outputs": outputs,
            }
            print(f"recorded {workload} variant {variant} from {source}: "
                  f"{outputs['paths']} paths")
    with open(EXPECTED, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        die("--workload is required")
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(TMP)
    os.environ["XDG_CACHE_HOME"] = os.path.abspath(TMP)
    try:
        build()
        if args.record:
            record()
        else:
            measure(args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    main()
