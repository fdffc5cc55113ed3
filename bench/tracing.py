"""Outside-in tracing of the z2z4 layers.

``Tracer.install`` replaces each layer entry point with a timing wrapper
wherever a z2z4 module has bound it by name (``z2z4.verify`` imports
``materialize`` from ``z2z4.cyclic``, for example), and wraps the
``AdditiveCode`` methods on the class, so calls between modules go
through the wrappers exactly as the library looks them up.  Nothing in
the library is edited; ``uninstall`` puts every original back.

Spans (name, start, end, parent span, op id) are kept in flat arrays in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of the spans directly beneath it.  Pool
workers forked by ``verify.sweep`` inherit the wrappers; each worker
appends its spans to a file after every spec it checks, and
``merge_workers`` folds those files back in.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from z2z4 import code, cyclic, gf2, verify, z4
from z2z4.code import AdditiveCode

ROOT_SETUP = "bench.setup"
ROOT_OP = "bench.op"
FLUSH = "trace.flush"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, worker_dir: Path):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, object] = {}
        self.stack: list[int] = []
        self.current_op = -1
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self._worker_file: Path | None = None
        self._flushed = 0
        self._patches: list[tuple[object, str, object]] = []
        # names a forked worker uses must exist before the fork
        for text in (ROOT_SETUP, ROOT_OP, FLUSH):
            self.name(text)

    # -- spans ---------------------------------------------------------------

    def name(self, text: str) -> int:
        if text not in self._ids:
            self._ids[text] = len(self.names)
            self.names.append(text)
        return self._ids[text]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, text: str, op: int = -1):
        """One of the benchmark's own root spans; ``op`` tags its subtree."""
        self.current_op = op
        i = self.open(self.name(text))
        try:
            yield
        finally:
            self.close(i)
            self.current_op = -1

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None, consume=False):
        """Time ``fn`` as a span called ``name``.

        ``before(args)`` runs ahead of the span and its value is handed
        to ``after(args, kwargs, out, pre)``, whose result is stored as
        the span's attribute.  ``consume`` drains a returned iterator
        inside the span, so a generator's work is timed where it runs.
        """
        nid = self.name(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
                if consume:
                    out = list(out)
            finally:
                tracer.close(i)
            if after is not None:
                tracer.attrs[i] = after(args, kwargs, out, pre)
            return iter(out) if consume else out

        return traced

    def wrap_worker_entry(self, fn, name: str):
        """Like ``wrap``, but the first call in a forked worker starts a
        fresh span buffer and every call ends by appending the new spans
        to that worker's file."""
        inner = self.wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._become_worker()
            try:
                return inner(*args, **kwargs)
            finally:
                if tracer._worker_file is not None:
                    tracer._flush()

        return traced

    def _become_worker(self) -> None:
        self.pid = os.getpid()
        for arr in (self.name_id, self.parent, self.op, self.start, self.end):
            del arr[:]
        self.attrs = {}
        self.stack = []
        self._flushed = 0
        self._worker_file = self.worker_dir / f"worker-{self.pid}-{time.time_ns()}.jsonl"

    def _flush(self) -> None:
        # spans before this flush's own span go out now; the flush span
        # itself goes out with the next flush
        i = self.open(self.name(FLUSH))
        lines = [
            json.dumps([self.name_id[j], self.parent[j], self.op[j],
                        self.start[j], self.end[j], self.attrs.get(j)])
            for j in range(self._flushed, i)
        ]
        with open(self._worker_file, "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self.close(i)
        self._flushed = i

    # -- patching ------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **kw)
        self._rebind(original, wrapper)

    def patch_worker_entry(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._rebind(original, self.wrap_worker_entry(original, name))

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "z2z4" or mod_name.startswith("z2z4.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, **kw))
        else:
            new = self.wrap(raw, name, **kw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        limit = inspect.signature(verify._gray_identity_holds).parameters[
            "exhaustive_limit"].default

        def probes(args, kwargs, out, pre):
            # every word up to the exhaustive limit, the basis beyond it
            c = args[0]
            return c.size if c.size <= limit else len(c.basis_words())

        pf = self.patch_function
        pf(gf2, "factor_xn1_gf2", "gf2.factor")
        pf(gf2, "tensor_square", "gf2.tensor_square")
        pf(gf2, "pairwise_product_span", "gf2.pairwise_product_span")
        pf(z4, "factor_xn1_z4", "z4.factor")
        pf(z4, "monic_divisors", "z4.monic_divisors")
        pf(z4, "bezout_lift", "z4.bezout_lift",
           after=lambda a, k, out, pre: f"{a[0].coeffs}|{a[1].coeffs}")
        pf(cyclic, "enumerate_cyclic_specs", "cyclic.enumerate_specs", consume=True,
           after=_enumeration_attr)
        pf(cyclic, "kernel_spec", "cyclic.kernel_spec")
        pf(cyclic, "rank_spec", "cyclic.rank_spec")
        pf(cyclic, "maximal_linear_subcodes", "cyclic.maximal_linear_subcodes")
        pf(cyclic, "materialize", "cyclic.materialize")
        pf(code, "group_basis", "code.group_basis")
        pf(code, "howell_rows", "code.howell_rows")
        pf(code, "is_gray_linear_bruteforce", "code.is_gray_linear_bruteforce")
        pf(code, "standard_form", "code.standard_form")
        pf(code, "kernel_bruteforce", "code.kernel_bruteforce")
        pf(code, "span_bruteforce", "code.span_bruteforce",
           after=lambda a, k, out, pre: id(a[0]))
        pf(code, "type_by_counting", "code.type_by_counting")
        pm = self.patch_method
        pm(AdditiveCode, "contains", "code.contains")
        pm(AdditiveCode, "membership_mask", "code.membership_mask")
        pm(AdditiveCode, "from_words", "code.from_words")
        # a code enumerates its words on the first call only; later calls
        # return the cached array
        pm(AdditiveCode, "words", "code.words",
           before=lambda a: getattr(a[0], "_words", None) is None,
           after=lambda a, k, out, pre: len(out) if pre else 0)
        pf(verify, "_gray_identity_holds", "verify.gray_identity", after=probes)
        pf(verify, "_first_difference", "verify.first_difference",
           after=lambda a, k, out, pre: out)
        pf(verify, "cross_check", "verify.cross_check",
           after=lambda a, k, out, pre: out.witness)
        pf(verify, "sweep", "verify.sweep",
           after=lambda a, k, out, pre: k.get("workers", a[3] if len(a) > 3 else 1))
        self.patch_worker_entry(verify, "_sweep_one", "verify.sweep_one")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- collection ------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """Own spans as (name, parent, op, start, end, attr, proc) rows;
        this process is proc 0."""
        return [
            (self.names[self.name_id[i]], self.parent[i], self.op[i],
             self.start[i], self.end[i], self.attrs.get(i), 0)
            for i in range(len(self.start))
        ]

    def merge_workers(self, rows: list[tuple]) -> int:
        """Append every worker file's spans to ``rows``; return the file count."""
        files = sorted(self.worker_dir.glob("worker-*.jsonl"))
        for proc, path in enumerate(files, start=1):
            base = len(rows)
            with open(path) as fh:
                for line in fh:
                    nid, parent, op, start, end, attr = json.loads(line)
                    rows.append((self.names[nid], parent + base if parent >= 0 else -1,
                                 op, start, end, attr, proc))
        return len(files)


def _enumeration_attr(args, kwargs, out, pre):
    alpha, beta = args[0], args[1]
    filtered = kwargs.get("type_filter", args[2] if len(args) > 2 else None) is not None
    return [alpha, beta, filtered, len(out)]


class SpanTable:
    """Self times and counts derived from a list of span rows."""

    def __init__(self, rows: list[tuple]):
        self.rows = rows
        n = len(rows)
        dur = [r[4] - r[3] for r in rows]
        child = [0.0] * n
        for i, r in enumerate(rows):
            if r[1] >= 0:
                child[r[1]] += dur[i]
        self.dur = dur
        self.self_time = [dur[i] - child[i] for i in range(n)]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_by_name: dict[str, float] = defaultdict(float)
        for i, r in enumerate(rows):
            self.calls[r[0]] += 1
            self.self_by_name[r[0]] += self.self_time[i]

    def attrs(self, name: str):
        return [(i, r[5]) for i, r in enumerate(self.rows) if r[0] == name]


# name, unit; the order is the order of the result line
LAYER_METRICS = (
    ("gf2.factor_s", "s"),
    ("gf2.tensor_square.calls", "count"),
    ("gf2.tensor_square.self_s", "s"),
    ("gf2.pairwise_product_span.calls", "count"),
    ("gf2.pairwise_product_span.self_s", "s"),
    ("z4.factor_s", "s"),
    ("z4.monic_divisors.self_s", "s"),
    ("z4.bezout_lift.calls", "count"),
    ("z4.bezout_lift.self_s", "s"),
    ("z4.bezout_lift.distinct_frac", "fraction"),
    ("cyclic.enumerate_specs.self_s", "s"),
    ("cyclic.enumerate_specs.valid_frac", "fraction"),
    ("cyclic.kernel_spec.self_s", "s"),
    ("cyclic.rank_spec.self_s", "s"),
    ("cyclic.maximal_linear_subcodes.self_s", "s"),
    ("cyclic.materialize.self_s", "s"),
    ("cyclic.materialize.calls_per_spec", "calls/spec"),
    ("code.group_basis.calls", "count"),
    ("code.group_basis.self_s", "s"),
    ("code.howell_rows.calls", "count"),
    ("code.howell_rows.self_s", "s"),
    ("code.contains.calls", "count"),
    ("code.contains.self_s", "s"),
    ("code.is_gray_linear_bruteforce.self_s", "s"),
    ("code.standard_form.self_s", "s"),
    ("code.words.calls", "count"),
    ("code.words.self_s", "s"),
    ("code.words.enumerated", "words"),
    ("code.from_words.calls", "count"),
    ("code.from_words.self_s", "s"),
    ("code.membership_mask.self_s", "s"),
    ("code.kernel_bruteforce.self_s", "s"),
    ("code.span_bruteforce.calls", "count"),
    ("code.span_bruteforce.self_s", "s"),
    ("code.span_bruteforce.calls_per_code", "calls/code"),
    ("code.type_by_counting.self_s", "s"),
    ("verify.gray_identity.self_s", "s"),
    ("verify.gray_identity.probes", "count"),
    ("verify.first_difference.calls", "count"),
    ("verify.first_difference.self_s", "s"),
    ("verify.first_difference.used_frac", "fraction"),
    ("verify.cross_check.self_s", "s"),
    ("verify.sweep.idle_frac", "fraction"),
    ("trace.timed_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rows: list[tuple], specs: int, traced_s: float,
                  untraced_s: float, raw_pair_count) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value from the spans of one traced set-up
    and one traced timed phase.

    ``specs`` is the number of specs the traced phase checked, and
    ``raw_pair_count(alpha, beta)`` the candidate count behind each
    enumeration.  A layer the workload never reaches reads 0.
    """
    t = SpanTable(rows)
    v: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            v[metric] = t.calls.get(layer, 0)
        elif stat == "self_s":
            v[metric] = t.self_by_name.get(layer, 0.0)
    # factoring is cold only in set-up (op -1); later calls are cache hits
    for metric, layer in (("gf2.factor_s", "gf2.factor"), ("z4.factor_s", "z4.factor")):
        v[metric] = sum(t.self_time[i] for i, r in enumerate(rows)
                        if r[0] == layer and r[2] < 0)

    keys = [a for _, a in t.attrs("z4.bezout_lift")]
    v["z4.bezout_lift.distinct_frac"] = _ratio(len(set(keys)), len(keys))

    enum = [a for _, a in t.attrs("cyclic.enumerate_specs") if not a[2]]
    v["cyclic.enumerate_specs.valid_frac"] = _ratio(
        sum(a[3] for a in enum), sum(raw_pair_count(a[0], a[1]) for a in enum))
    v["cyclic.materialize.calls_per_spec"] = _ratio(t.calls.get("cyclic.materialize", 0), specs)
    v["code.words.enumerated"] = sum(a for _, a in t.attrs("code.words"))

    # keyed by the calling span, so object ids reused across specs never merge
    spans = t.attrs("code.span_bruteforce")
    codes = {(rows[i][6], rows[i][1], a) for i, a in spans}
    v["code.span_bruteforce.calls_per_code"] = _ratio(len(spans), len(codes))
    v["verify.gray_identity.probes"] = sum(a for _, a in t.attrs("verify.gray_identity"))

    built = t.attrs("verify.first_difference")
    used = 0
    for i, note in built:
        witness = rows[rows[i][1]][5] if rows[i][1] >= 0 else None
        used += witness is not None and witness.endswith(": " + note)
    v["verify.first_difference.used_frac"] = _ratio(used, len(built))

    busy = sum(t.dur[i] for i, r in enumerate(rows) if r[0] == "verify.sweep_one")
    capacity = sum(t.dur[i] * (a or 1) for i, a in t.attrs("verify.sweep"))
    v["verify.sweep.idle_frac"] = 1.0 - busy / capacity if capacity else 0.0

    # The benchmark's own process, timed phase: layer self times plus the
    # time no layer claims (op bodies and the gaps between ops) must add
    # up to the phase's wall time.
    own = [i for i, r in enumerate(rows) if r[6] == 0 and r[2] >= 0]
    roots = [i for i in own if rows[i][0] == ROOT_OP]
    layer_self = sum(t.self_time[i] for i in own if rows[i][0] != ROOT_OP)
    unattributed = (sum(t.self_time[i] for i in roots)
                    + traced_s - sum(t.dur[i] for i in roots))
    if abs(layer_self + unattributed - traced_s) > 1e-6 * max(1.0, traced_s):
        raise RuntimeError(
            f"span accounting is off: {layer_self} + {unattributed} != {traced_s}")
    v["trace.timed_s"] = traced_s
    v["trace.unattributed_s"] = unattributed
    v["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return v
