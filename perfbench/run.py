"""Benchmark of bistoch: one workload per run, a closed loop with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

The run imports bistoch from ``src/``, sets the workload up several times,
then repeats the workload's pass until ``--seconds`` have elapsed (at least
once).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics, from traced passes, and the
run also writes its spans to ``.perfbench/``.  The lines before the JSON
object give the run's metadata and a readable summary.  NOTES.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("ensemble", "check_all", "operators")
# units of the workload-specific headline numbers printed in the summary
SUMMARY_UNITS = {"plain_mjump_s": "Mjump/s", "decomp_mjump_s": "Mjump/s",
                 "diffusivity_s": "s", "certify_s": "s"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def guarded(call):
    """Run ``call() -> Pass``; a raised exception becomes one failed operation.

    Returns the Pass and whether the call raised.
    """
    from workloads import Pass

    try:
        return call(), False
    except Exception as e:
        p = Pass()
        p.gate(False, f"raised {type(e).__name__}: {e}")
        return p, True


def run_passes(workload, seconds: float, tracer, first: int) -> list:
    """Repeat the workload's pass until ``seconds`` elapse; (wall, Pass) each.

    Stops after a pass that raised, since the workload's state is unknown.
    """
    out = []
    end = time.perf_counter() + seconds
    while not out or time.perf_counter() < end:
        tracer.iteration = first + len(out)
        t0 = time.perf_counter()
        with tracer.span("pass"):
            p, raised = guarded(lambda: workload.run(tracer))
        out.append((time.perf_counter() - t0, p))
        if raised:
            break
    return out


def layer_metrics(passes: list, tracer, spec: list) -> dict:
    """Median over the traced passes (iterations 0, 1, ...) of each per-layer value."""
    samples: dict[str, list] = {}
    for i, (_, p) in enumerate(passes):
        values = {f"{name}_s": v for name, v in tracer.totals(i).items()}
        values.update(p.layer)
        for name, v in values.items():
            samples.setdefault(name, []).append(v)
    known = {m["name"] for m in spec}
    unknown = sorted(set(samples) - known)
    if unknown:
        raise RuntimeError(f"per-layer values missing from BENCHMARK.json: {unknown}")
    # a layer the workload never calls reads zero
    return {name: statistics.median(samples[name]) if name in samples else 0.0
            for name in known}


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not os.path.isfile(os.path.join(SRC, "bistoch", "__init__.py")):
        print(f"error: no bistoch sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(nproc)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy
    import scipy

    import bistoch
    import workloads
    import_s = time.perf_counter() - t0
    from tracing import Tracer

    if not os.path.abspath(bistoch.__file__).startswith(SRC + os.sep):
        print(f"error: bistoch imported from {bistoch.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": git_commit(ROOT),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "blas_threads": nproc,
            "threads": 1}
    print("meta " + json.dumps(meta, sort_keys=True))

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tracer = Tracer(enabled=bool(args.trace))
        if args.trace:
            traced = run_passes(wl, args.seconds / 2, tracer, 0)
            untraced = run_passes(wl, args.seconds / 2, Tracer(enabled=False), len(traced))
        else:
            traced = []
            untraced = run_passes(wl, args.seconds, tracer, 0)
        peak_mb = workloads.peak_rss_mb()
        reference, _ = guarded(lambda: workloads.check_reference(args.workload, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = [p for _, p in traced + untraced] + [reference]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    problems = [msg for p in everything for msg in p.problems]
    failures = [msg for p in everything for msg in p.failures]
    wall_s = statistics.median(w for w, _ in untraced)

    if args.trace:
        values = layer_metrics(traced, tracer, spec["per_layer"])
        values["trace.overhead_s"] = statistics.median(w for w, _ in traced) - wall_s
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        with open(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"), "w") as f:
            json.dump({"meta": meta, "spans": tracer.spans,
                       "layer": [p.layer for _, p in traced]}, f)
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_mb}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{failed}/{attempted} operations failed (failed_frac {failed / attempted:.4g})")
    print("  pass wall times: " + ", ".join(f"{w:.3f}" for w, _ in traced + untraced) + " s")
    for name, unit in SUMMARY_UNITS.items():
        got = [p.summary[name] for _, p in untraced if name in p.summary]
        if got:
            print(f"  {name} = {statistics.median(got):.6g} {unit}")
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    for msg in sorted(set(failures)):
        kind = "incorrect output" if msg in problems else "failed verdict"
        print(f"  {kind} ({failures.count(msg)}x): {msg}")

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
