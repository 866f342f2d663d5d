"""cosmodirac benchmark: shipped presets end to end, checked against references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, summary table
    python3 perfbench/run.py --workload all --steadiness 5   # two sets of 5 runs each

A run lasts about ``--seconds`` in all.  It starts set-up-only
interpreters (perfbench/worker.py --setup-only) and one worker that
loads the workload's config once and forks a fresh child for each
repetition of ``cosmodirac.pipeline.run`` (workers=1); every
repetition's output is checked against the stored reference.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and it carries
the per-layer metrics.  The seed only orders the set-up probes, the
traced/untraced alternation and the workloads: the workloads are
deterministic and the references are tied to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
RECORD_DIR = OUT_DIR / "records"  # every run's repetitions, for a later look

# Set-up-only interpreters per run, besides the worker's own set-up.  Set-up
# time varies by ~20% from one interpreter to the next whatever the host
# speed, and the host-speed probe does not predict it, so it is not
# rescaled: its median over many interpreters is what steadies it.
SETUP_PROBES = 6
BUDGET_S = 170.0  # a run ends well within 180 s


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if top.returncode or head.returncode or Path(top.stdout.strip()) != ROOT:
        return "unknown (not a git checkout)"
    return head.stdout.strip()


def environment() -> dict:
    """Versions, BLAS build and thread settings that numbers depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "default") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def _kill_group(proc):
    """Kill whatever is left of the worker's session (the worker and a child it
    forked, even if the worker itself has died); wait for the worker."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def spawn(name, out, timeout, extra=()):
    """Start a worker, wait for it; (JSON lines it printed, error text or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--out", str(out), *extra]
    t_spawn = time.monotonic()
    # Its own session, so that a timeout can kill the worker's forked child too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    err = None
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            err = f"exit {proc.returncode}: {stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        err = f"timed out after {timeout:.0f} s"
        stdout = ""
    finally:
        _kill_group(proc)
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            err = err or f"unreadable worker output: {line[-500:]!r}"
    for line in lines:
        if line.get("kind") == "setup":
            line["setup_s"] = line["ready_monotonic"] - t_spawn
    if not lines or lines[0].get("kind") != "setup":
        err = err or "worker printed no set-up line"
    return lines, err


def run_workload(name, seed, seconds, trace) -> dict:
    """One run of a workload, ``seconds`` long in all; returns its record."""
    t_start = time.monotonic()
    deadline = t_start + BUDGET_S
    rng = random.Random(f"{name}:{seed}")
    out = OUT_DIR / name
    probes_before = rng.randint(0, SETUP_PROBES)
    first_traced = rng.getrandbits(1)

    setups, reps, errors = [], [], []

    def probe():
        lines, err = spawn(name, out, deadline - time.monotonic(), ["--setup-only"])
        if err:
            errors.append(f"setup probe: {err}")
        else:
            setups.append(lines[0])

    for _ in range(probes_before):
        probe()
    # leave room for the probes still to come
    setup_s = 1.2 * statistics.median([s["setup_s"] for s in setups] or [1.0])
    until = t_start + seconds - (SETUP_PROBES - probes_before) * setup_s
    lines, err = spawn(name, out, deadline - time.monotonic(), [
        "--until", repr(until), "--deadline", repr(deadline - 10.0),
        "--trace", str(trace), "--first-traced", str(first_traced),
        "--run-id", f"{name}-{seed}"])
    if lines and lines[0].get("kind") == "setup":
        setups.append(lines[0])
    reps = [line for line in lines if line.get("kind") == "rep"]
    if err:
        errors.append(f"worker: {err}")
    for _ in range(SETUP_PROBES - probes_before):
        if time.monotonic() < deadline - 10.0:
            probe()

    ok = [r for r in reps if "error" not in r and r["check"]["ok"]]
    for r in reps:
        if "error" in r:
            errors.append(f"rep {r['rep']}: {r['error']}")
        elif not r["check"]["ok"]:
            errors.append(f"rep {r['rep']}: output check failed: {r['check']['errors']}")
        elif r["traced"] and r["missing_sites"]:
            print(f"# {name}: not traced, absent from the package: "
                  f"{r['missing_sites']}", file=sys.stderr)
    # a worker that died without reporting counts as one failed repetition
    attempted = len(reps) + (1 if err else 0)
    for e in errors:
        print(f"# {name}: {e}", file=sys.stderr)
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": attempted, "failed": attempted - len(ok),
        "elapsed_s": time.monotonic() - t_start, "setups": setups,
        "untraced": [r for r in ok if not r["traced"] and not r["warmup"]],
        "traced": [r for r in ok if r["traced"]],
        "checks": [r["check"] for r in reps if "check" in r],
    }
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    with open(RECORD_DIR / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh)
    return record


def scaled_run_s(rep) -> float:
    return hostspeed.scaled(rep["run_s"], *rep["probe_s"])


def end_to_end(record) -> dict:
    runs = record["untraced"]
    if not runs or not record["setups"]:
        return {}
    return {
        "run_s": statistics.median(scaled_run_s(r) for r in runs),
        "setup_s": statistics.median(s["setup_s"] for s in record["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(record) -> dict:
    traced, untraced = record["traced"], record["untraced"]
    if not traced or not untraced or not record["setups"]:
        return {}
    # All layer numbers come from one traced repetition, the median one by
    # rescaled time, so that its layer self times still add up to its run_s.
    # Times here are as measured, not rescaled; host.probe_ms says how fast
    # the host was around them.
    middle = sorted(traced, key=scaled_run_s)[(len(traced) - 1) // 2]
    m = dict(middle["layers"])
    setups = record["setups"]
    m.update({
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "config.load_s": statistics.median(s["load_s"] for s in setups),
        "cli.preset_text_s": statistics.median(s["preset_text_s"] for s in setups),
        "pipeline.output_bytes": middle["output_bytes"],
        "trace.run_s": middle["run_s"],
        "trace.overhead_s": scaled_run_s(middle)
        - statistics.median(scaled_run_s(r) for r in untraced),
        "host.probe_ms": 1e3 * statistics.fmean(sum(p.values()) for p in middle["probe_s"]),
        "check.max_abs_dev": max(c["max_abs_dev"] for c in record["checks"]),
        "pipeline.digest_match": int(all(c["digest_match"] for c in record["checks"])),
    })
    return m


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(record, spec) -> dict:
    """The last stdout line: correctness counts and this mode's metrics."""
    if record["trace"]:
        values, units = per_layer(record), {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, units = end_to_end(record), {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()
                    if k in values},
    }


def describe(record):
    runs = record["untraced"]
    if not runs:
        print(f"# {record['workload']}: no successful untraced run")
        return
    raw = [r["run_s"] for r in runs]
    scaled = ", ".join(f"{scaled_run_s(r):.3f}" for r in runs)
    print(f"# {record['workload']}: run_s as measured median {statistics.median(raw):.3f} s, "
          f"min {min(raw):.3f} s, max {max(raw):.3f} s, n={len(raw)}; "
          f"rescaled [{scaled}]; run took {record['elapsed_s']:.1f} s")


def spread(values) -> float:
    """Interquartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def steadiness(workloads, n_runs, seed, seconds, spec) -> bool:
    """Two sets of ``n_runs`` runs per workload, judged by the benchmark's bounds."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report, ok = [], True
    for name in workloads:
        sets = []
        for s in range(2):
            values = []
            for i in range(n_runs):
                record = run_workload(name, seed + s * n_runs + i, seconds, 0)
                ok &= record["failed"] == 0
                values.append(end_to_end(record))
                describe(record)
            sets.append(values)
        for metric, spec_m in bounds.items():
            a = [v[metric] for v in sets[0] if metric in v]
            b = [v[metric] for v in sets[1] if metric in v]
            if len(a) < 2 or len(b) < 2:
                ok = False
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if spec_m["better"] == "lower" else -1)
            spreads = (spread(a), spread(b), spread(a + b))
            steady = (metric == "setup_s" or max(spreads[:2]) <= spec_m["bound"])
            agree = worse <= spec_m["bound"]
            ok &= steady and agree
            report.append({"workload": name, "metric": metric, "median_1": med_a,
                           "median_2": med_b, "worse_2_vs_1": worse,
                           "spread_1": spreads[0], "spread_2": spreads[1],
                           "spread_all": spreads[2], "bound": spec_m["bound"],
                           "ok": steady and agree})
    print(f"# env {json.dumps(environment())}")
    print(f"# {'workload':<26} {'metric':<12} {'median 1':>10} {'median 2':>10} "
          f"{'2 vs 1':>7} {'spread 1':>8} {'spread 2':>8} {'all':>7} {'bound':>6}")
    for r in report:
        print(f"# {r['workload']:<26} {r['metric']:<12} {r['median_1']:>10.4f} "
              f"{r['median_2']:>10.4f} {r['worse_2_vs_1']:>+7.1%} {r['spread_1']:>8.1%} "
              f"{r['spread_2']:>8.1%} {r['spread_all']:>7.1%} {r['bound']:>6.0%}"
              f"{'' if r['ok'] else '  OUT OF BOUND'}")
    print(json.dumps({"steady": ok, "runs_per_set": n_runs, "report": report}))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cosmodirac benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run two sets of N runs and judge them by the bounds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cosmodirac" / "__init__.py").is_file():
        print(f"no cosmodirac sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    print(f"# commit {git_commit()}")

    if args.steadiness:
        return 0 if steadiness(names, args.steadiness, args.seed, seconds, spec) else 1

    records = [run_workload(n, args.seed, seconds, args.trace) for n in names]
    print(f"# env {json.dumps(environment())}")
    for record in records:
        describe(record)
        for k, v in result_line(record, spec)["metrics"].items():
            print(f"# {record['workload']} {k} = {v['value']!r} {v['unit']}")
    if args.workload != "all":
        record = records[0]
        if not (record["untraced"] or record["traced"]):
            print(f"# {record['workload']}: every repetition failed", file=sys.stderr)
            return 1
        print(json.dumps(result_line(record, spec)))
        return 0

    print(f"# {'workload':<26} {'run_s':>9} {'measured':>9} {'max':>9} {'n':>3} "
          f"{'setup_s':>8} {'rss_MB':>7} {'failed_frac':>11}")
    for r in records:
        e = end_to_end(r)
        runs = [x["run_s"] for x in r["untraced"]] or [float("nan")]
        print(f"# {r['workload']:<26} {e.get('run_s', float('nan')):>9.3f} "
              f"{statistics.median(runs):>9.3f} {max(runs):>9.3f} {len(r['untraced']):>3} "
              f"{e.get('setup_s', float('nan')):>8.3f} "
              f"{e.get('peak_rss_mb', float('nan')):>7.1f} "
              f"{r['failed'] / r['attempted']:>11.3f}")
    merged = {f"{r['workload']}.{k}": v for r in records
              for k, v in result_line(r, spec)["metrics"].items()}
    print(json.dumps({"correct": all(r["failed"] == 0 for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
