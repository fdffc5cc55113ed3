"""Benchmark of the z2z4 library: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory; nothing is
built or installed.  The work of a run is fixed by the seed and
``--seconds`` (see ``workloads.py``).  Every op's result is checked.

With ``--trace 0`` the run sets up several times (``SETUP_REPS``,
``SETUP_MIN_S``), times the library's import into a fresh interpreter
``IMPORT_REPS`` times, and reports the sum of the two medians as
``setup_s``.  It times the ops with no instrumentation and reports the
end-to-end metrics.  With ``--trace 1`` it times the same ops twice,
first plain and then with every layer entry point wrapped
(``tracing.py``), and reports the per-layer metrics, including the
tracing overhead; the spans go to ``bench/out/``.

Standard output ends with two JSON lines: the run record (machine, seed,
sample counts, per-spec latency, failures) and the result
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
whenever a result was printed; without the library source next to this
directory the script exits with 1 before doing anything.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "z2z4" / "__init__.py").is_file():
    sys.exit("bench: no z2z4 source under src/ next to the bench directory")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from z2z4 import cyclic, gf2, z4  # noqa: E402

SETUP_REPS = 3      # set-ups per run at least,
SETUP_MIN_S = 2.0   # and more until they add up to this long
IMPORT_REPS = 3
MAX_LISTED = 100
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import z2z4; print(time.perf_counter() - t)"
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds() -> float:
    """Median time to import the library into a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def set_up(w, seed: int, n: int) -> list:
    """Cold factoring tables for the workload's lengths, then its specs."""
    for cache in workloads.COLD_CACHES:
        cache.cache_clear()
    odd_alphas = {a >> ((a & -a).bit_length() - 1) for a in w.alphas}
    for n_len in sorted(set(w.betas) | odd_alphas):
        gf2.factor_xn1_gf2(n_len)
    for n_len in sorted(set(w.betas)):
        z4.factor_xn1_z4(n_len)
    return w.pick(w.pool(), random.Random(seed), n)


def run_items(w, items: list, tracer=None):
    """Time every item; return (wall seconds, per-item seconds, outcomes)."""
    outcomes: list[tuple[str, tuple[str, ...]]] = []
    per_item: list[float] = []
    gc.collect()
    begin = time.perf_counter()
    for k, item in enumerate(items):
        t0 = time.perf_counter()
        if tracer is None:
            res = _call(w, item)
        else:
            with tracer.span(tracing.ROOT_OP, op=k):
                res = _call(w, item)
        per_item.append(time.perf_counter() - t0)
        outcomes.extend(res)
    return time.perf_counter() - begin, per_item, outcomes


def _call(w, item):
    try:
        return w.op(item)
    except Exception as exc:  # a raising op is a failed op; keep going
        traceback.print_exc(file=sys.stderr)
        return [(str(s), (f"raised {type(exc).__name__}",)) for s in w.specs(item)]


def verdict(name: str, outcomes) -> tuple[bool, int, list[dict]]:
    """(correct, failed, failure records) against the known failures.

    Only the first ``MAX_LISTED`` records go into the run record.
    """
    known = workloads.known_failures(name)
    failures = []
    correct = True
    for spec, checks in outcomes:
        if not checks:
            continue
        is_known = all((spec, c) in known for c in checks)
        correct = correct and is_known
        failures.append({"spec": spec, "checks": list(checks), "known": is_known})
    return correct, len(failures), failures


def latency(per_item: list[float]) -> dict:
    """Median and the highest decile with at least ten samples beyond it."""
    ms = sorted(1000.0 * s for s in per_item)
    n = len(ms)
    rank90 = math.ceil(0.9 * n)
    beyond = n - rank90
    return {
        "samples": n,
        "p50_ms": statistics.median(ms),
        "p90_ms": ms[rank90 - 1] if beyond >= 10 else None,
        "beyond_p90": beyond,
    }


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def _plain(w, seed: int, n: int, record: dict):
    """Set up several times, then time the ops; end-to-end metrics."""
    reps: list[float] = []
    while len(reps) < SETUP_REPS or sum(reps) < SETUP_MIN_S:
        t0 = time.perf_counter()
        items = set_up(w, seed, n)
        reps.append(time.perf_counter() - t0)
    wall, per_item, outcomes = run_items(w, items)
    import_s = import_seconds()
    metrics = {
        "specs_per_s": (len(outcomes) / wall, "1/s"),
        "setup_s": (import_s + statistics.median(reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record.update(import_s=import_s, setup_reps=len(reps), setup_rep_min_s=min(reps),
                  setup_rep_median_s=statistics.median(reps), timed_s=wall,
                  specs=len(outcomes))
    return metrics, per_item, outcomes


def _traced(w, seed: int, n: int, record: dict, out_dir: Path):
    """Time the ops plain, then set up and time them again traced;
    per-layer metrics.  Latency is the plain pass's; outcomes cover both."""
    items = set_up(w, seed, n)
    untraced, per_item, outcomes = run_items(w, items)
    worker_dir = out_dir / f"workers-{os.getpid()}"
    shutil.rmtree(worker_dir, ignore_errors=True)
    worker_dir.mkdir(parents=True)
    tracer = tracing.Tracer(worker_dir)
    tracer.install()
    try:
        with tracer.span(tracing.ROOT_SETUP):
            set_up(w, seed, n)
        wall, _, traced_outcomes = run_items(w, items, tracer)
    finally:
        tracer.uninstall()
    rows = tracer.spans()
    workers = tracer.merge_workers(rows)
    shutil.rmtree(worker_dir, ignore_errors=True)
    values = tracing.layer_metrics(rows, len(traced_outcomes), wall, untraced,
                                   cyclic.raw_pair_count)
    metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}
    spans_path = out_dir / f"{w.name}-seed{seed}.spans.jsonl.gz"
    with gzip.open(spans_path, "wt", compresslevel=1) as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    record.update(untraced_s=untraced, timed_s=wall, spans=len(rows),
                  worker_files=workers, spans_file=os.path.relpath(spans_path, ROOT),
                  specs=len(traced_outcomes))
    return metrics, per_item, outcomes + traced_outcomes


def run(w, seed: int, seconds: int, trace: bool, out_dir: Path = OUT) -> tuple[dict, dict]:
    """One run; return (result, run record)."""
    n = w.items_for(seconds)
    record = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "items": n, **machine_info()}
    if trace:
        metrics, per_item, outcomes = _traced(w, seed, n, record, out_dir)
    else:
        metrics, per_item, outcomes = _plain(w, seed, n, record)
    correct, failed, failures = verdict(w.name, outcomes)
    record.update(
        attempted=len(outcomes),
        failed=failed,
        fail_rate=failed / len(outcomes),
        failures=failures[:MAX_LISTED],
        latency=latency(per_item) if w.item_is_spec else None,
    )
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result, record = run(w, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
