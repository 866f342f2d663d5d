"""One run of a workload: a fresh interpreter that forks one child per repetition.

    python3 perfbench/worker.py --workload symmetry_sweep --out .perfbench_out/x \\
        --until T --deadline T [--trace 1 --first-traced 0] [--run-id ID]
    python3 perfbench/worker.py --workload symmetry_sweep --out DIR --setup-only

Imports cosmodirac from ``src/`` of the checkout this file sits in and
loads the workload's config (see workloads.py).  That is the set-up; it
prints one JSON line whose ``ready_monotonic`` is ``time.monotonic()``
once the config is validated, and the parent subtracts its own spawn time
from it, since that clock is shared by all processes of the machine.

Unless ``--setup-only``, it then forks one child per repetition.  The
child runs the config through ``cosmodirac.pipeline.run`` with
``workers=1`` and exits.  Every child starts from the same state (modules
imported, config validated, nothing run), so no repetition inherits
caches or warmed-up objects from another and none pays the import again.
After each child the output directory is checked against the workload's
reference, the host-speed probe (hostspeed.py) runs, and one JSON line is
printed; the probe also runs before the first child, so every repetition
is bracketed by two probe times.  Repetition 0 is a warm-up: it is
checked but not timed.  Repetitions go on while the next one should end
before ``--until`` (a monotonic time); none starts that could end after
``--deadline``, and a child still running at ``--deadline`` is killed.
With ``--trace 1``, traced and untraced repetitions alternate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SELF_TIME_TOL_S = 1e-6


def repetition(pipeline, cfg, out: Path, traced: bool, run_id: str) -> dict:
    """One timed ``pipeline.run`` (in the child); returns its record."""
    shutil.rmtree(out, ignore_errors=True)
    result = {}
    if traced:
        from tracing import Tracer, layer_metrics

        tracer = Tracer(run_id)
        with tracer:
            tracer.span("pipeline.run", pipeline.run, cfg, output_dir=out, workers=1)
        root = tracer.spans[0]
        result["run_s"] = root[2] - root[1]
        result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        result["missing_sites"] = tracer.missing
        with open(out.parent / f"{out.name}.spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id", "extra"],
                       "spans": tracer.spans, "counts": tracer.counts}, fh)
    else:
        start = time.perf_counter()
        pipeline.run(cfg, output_dir=out, workers=1)
        result["run_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def fork_repetition(pipeline, cfg, out, traced, run_id, timeout):
    """Run :func:`repetition` in a forked child; (record or None, error text)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = 1
        try:
            os.close(read_fd)
            sys.stdout = sys.stderr  # stdout carries the parent's JSON lines only
            result = repetition(pipeline, cfg, out, traced, run_id)
            code = 0
        except BaseException:
            result = {"error": traceback.format_exc()[-2000:]}
        try:
            with os.fdopen(write_fd, "w") as fh:
                json.dump(result, fh)
            sys.stderr.flush()
        finally:
            os._exit(code)

    os.close(write_fd)
    end = time.monotonic() + timeout
    chunks = []
    try:
        while True:
            left = end - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return None, f"killed after {timeout:.0f} s"
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    try:
        result = json.loads(b"".join(chunks))
    except json.JSONDecodeError:
        return None, f"child exited with status {status} and no result"
    if "error" in result:
        return None, result["error"]
    return result, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True, help="run output directory")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--until", type=float, default=0.0,
                        help="monotonic time by which the last repetition should end")
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="monotonic time no repetition may run past")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-traced", type=int, choices=(0, 1), default=1)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cosmodirac
    from cosmodirac import cli, config, pipeline
    t1 = time.perf_counter()
    if Path(cosmodirac.__file__).resolve().parent != (SRC / "cosmodirac").resolve():
        print(f"cosmodirac imported from {cosmodirac.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    from workloads import WORKLOADS, workload_text

    text = cli.preset_text(WORKLOADS[args.workload]["preset"])
    t2 = time.perf_counter()
    text = workload_text(args.workload, text)
    t3 = time.perf_counter()
    cfg = config.load_config(text)
    t4 = time.perf_counter()
    print(json.dumps({
        "kind": "setup",
        "ready_monotonic": time.monotonic(),
        "import_s": t1 - t0,
        "preset_text_s": t2 - t1,
        "load_s": t4 - t3,
    }), flush=True)
    if args.setup_only:
        return 0

    from check import check_run, load_reference

    reference = load_reference(args.workload)
    if reference.get("workload") != WORKLOADS[args.workload]:
        print(f"reference for {args.workload} was made for another workload "
              f"definition: {reference.get('workload')}", file=sys.stderr)
        return 4
    if args.trace:
        import tracing  # noqa: F401  (imported once here, not in each child)
    import hostspeed

    out = Path(args.out)
    done = {True: 0, False: 0}  # successful repetitions, by traced
    rep = 0
    hostspeed.probe()  # loads LAPACK and starts its threads
    probe_before = hostspeed.probe()
    while True:
        warmup = rep == 0
        traced = bool(args.trace) and not warmup and (rep % 2 == 1) == bool(args.first_traced)
        began = time.monotonic()
        result, err = fork_repetition(pipeline, cfg, out, traced,
                                      f"{args.run_id}-{rep}", args.deadline - began)
        record = {"kind": "rep", "rep": rep, "warmup": warmup, "traced": traced}
        if result is None:
            record["error"] = err
        else:
            record.update(result)
            record["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
            check = check_run(out, reference)
            if traced:
                layers = result["layers"]
                self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
                if abs(self_sum - result["run_s"]) > SELF_TIME_TOL_S:
                    check["ok"] = False
                    check["errors"].append(f"layer self times sum to {self_sum} s, "
                                           f"run took {result['run_s']} s")
            record["check"] = check
            if check["ok"] and not warmup:
                done[traced] += 1
        # after the check, so that the child's exit has settled
        probe_after = hostspeed.probe()
        record["probe_s"] = [probe_before, probe_after]
        probe_before = probe_after
        last = time.monotonic() - began
        print(json.dumps(record), flush=True)
        rep += 1

        now = time.monotonic()
        if now + last > args.deadline:
            break
        missing = done[False] == 0 or (args.trace and done[True] == 0)
        if now + last > args.until and not (missing and rep < 8):
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
