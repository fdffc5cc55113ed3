"""The benchmark's workloads: spec pools, seeded picks, timed ops and their checks.

Every workload hands the library nothing but the specs it generates.  A
run's size is fixed by ``--seconds`` and the workload's ``rate``, never
by the clock, so one seed and one ``--seconds`` always give the same
items and the per-layer counts of a traced run repeat exactly.  The
rates are items per second when the benchmark was defined, on a 2-vCPU
x86-64 VM at 2.0 GHz with Python 3.11.7 and numpy 2.4.6.

Why these four:

* ``sweep-small`` cross-checks small codes (|C| <= 2^12), where per-spec
  fixed costs dominate: group bases, Howell rows, ``contains`` and the
  exhaustive side of the Gray identity check.
* ``verify-large`` cross-checks one code of 2^20 words, the numpy-bound
  enumeration path (``words``, ``from_words``, kernels and spans).
* ``closed-forms`` evaluates the closed forms alone at beta 15 and 21,
  where no enumeration is affordable: GF(2) and Z4 divisor arithmetic.
* ``sweep-parallel`` runs ``verify.sweep`` with a worker pool, the only
  path through the ``Pool.imap`` scheduling layer.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

from z2z4 import cyclic, gf2, verify, z4

HERE = Path(__file__).resolve().parent

# Captured before any tracing wrapper replaces the module attributes:
# set-up clears these so that factoring starts cold every time.
COLD_CACHES = (gf2.cyclotomic_cosets, gf2.build_field, gf2.factor_xn1_gf2,
               z4.factor_xn1_z4)


def _log2_size(spec) -> int:
    return cyclic.cardinality(spec).bit_length() - 1


def stratified(pool: list, n: int, rng: random.Random, key=None) -> list:
    """``n`` seeded picks spread evenly over ``pool`` ordered by ``key``.

    Sorted by a cost proxy and cut into ``n`` runs of neighbours, one
    pick per run, every seed draws the same mix of cheap and costly
    specs; a plain random sample of heavy-tailed costs would make the
    work per run depend on the seed.  Past one whole pool the picks
    wrap around.
    """
    ordered = sorted(pool, key=key) if key is not None else list(pool)
    whole, rest = divmod(n, len(ordered))
    picks = ordered * whole
    for k in range(rest):
        lo = k * len(ordered) // rest
        hi = (k + 1) * len(ordered) // rest
        picks.append(ordered[rng.randrange(lo, hi)])
    rng.shuffle(picks)
    return picks


def _specs(alphas, betas, keep=None) -> list:
    # enumeration order, as verify.sweep has it; looked up on the module
    # each time so that a traced run sees the call
    return [
        s for a in alphas for b in sorted(betas)
        for s in cyclic.enumerate_cyclic_specs(a, b)
        if keep is None or keep(s)
    ]


class Workload:
    """Specs over ``alphas`` x ``betas`` that pass ``keep``; one item is
    one spec, and ``key`` is the cost proxy the seeded pick stratifies on."""

    item_is_spec = True

    def __init__(self, name, alphas, betas, rate, keep=None, key=None):
        self.name = name
        self.alphas = tuple(alphas)
        self.betas = tuple(betas)
        self.rate = rate
        self.keep = keep
        self.key = key

    def pool(self) -> list:
        return _specs(self.alphas, self.betas, self.keep)

    def pick(self, pool: list, rng: random.Random, n: int) -> list:
        return stratified(pool, n, rng, self.key)

    def specs(self, item) -> list:
        return [item]

    def op(self, item) -> list[tuple[str, tuple[str, ...]]]:
        """Run one item; return (spec, failed check names) per spec."""
        raise NotImplementedError

    def items_for(self, seconds: int) -> int:
        return max(1, int(seconds * self.rate))


class CrossCheck(Workload):
    """Each spec through ``verify.cross_check``."""

    def op(self, spec):
        report = verify.cross_check(spec)
        return [(str(spec), report.failures)]


class ClosedForms(Workload):
    """Closed forms only, with the enumeration-free invariants
    ``cross_check`` also asserts."""

    def op(self, spec):
        t = cyclic.type_from_degrees(spec)
        k = cyclic.kernel_spec(spec)
        r = cyclic.rank_spec(spec)
        cyclic.maximal_linear_subcodes(spec)
        checks = (
            ("cardinality", cyclic.cardinality(spec) == t.size),
            ("kernel-candidates", k.dimension in cyclic.kernel_dim_candidates(t)),
            ("kernel-bounds", t.gamma + t.delta <= k.dimension <= t.gamma + 2 * t.delta),
            ("rank-candidates", r.rank in cyclic.rank_candidates(t)),
        )
        return [(str(spec), tuple(name for name, ok in checks if not ok))]


class SweepParallel(Workload):
    """Whole ``verify.sweep`` calls over alpha <= ``alpha_max``; one item
    is one call, and the pool is the rows it must return, in order."""

    item_is_spec = False

    def __init__(self, name, alpha_max, betas, workers, rate):
        super().__init__(name, range(1, alpha_max + 1), betas, rate)
        self.alpha_max = alpha_max
        self.workers = workers

    def pick(self, pool, rng, n):
        return [tuple(pool)] * n

    def specs(self, item):
        return list(item)

    def op(self, expected):
        rows = verify.sweep(alpha_max=self.alpha_max, betas=self.betas,
                            workers=self.workers).rows
        out = []
        for i, spec in enumerate(expected):
            if i >= len(rows):
                out.append((str(spec), ("row-missing",)))
            elif rows[i].spec != spec:
                out.append((str(spec), ("row-order",)))
            elif rows[i].guarded:
                out.append((str(spec), ("guarded",)))
            else:
                out.append((str(spec), rows[i].report.failures))
        out.extend((str(row.spec), ("row-extra",)) for row in rows[len(expected):])
        return out


def _verify_large_pair(spec) -> bool:
    # The six (4, 9) codes of 2^20 words take 11 to 15 s each to
    # cross-check.  The two with f = 1, ell = 0 and h != 1 take the same
    # time and memory (Gray-linear of rank 20, 170 MB peak), so which of
    # them the seed picks does not move the run.
    return (cyclic.cardinality(spec) == 1 << 20 and spec.f.is_one
            and spec.ell.is_zero and not spec.h.is_one)


WORKLOADS = {
    w.name: w
    for w in (
        CrossCheck("sweep-small", range(1, 7), (1, 3, 5, 7, 9), rate=14.5,
                   keep=lambda s: cyclic.cardinality(s) <= 1 << 12,
                   key=lambda s: (_log2_size(s), s.beta, s.alpha)),
        CrossCheck("verify-large", (4,), (9,), rate=0.089, keep=_verify_large_pair),
        ClosedForms("closed-forms", range(1, 5), (15, 21), rate=477.0,
                    key=lambda s: (s.beta, s.alpha)),
        SweepParallel("sweep-parallel", 4, (1, 3, 5),
                      workers=min(2, os.cpu_count() or 1), rate=0.14),
    )
}


def known_failures(name: str) -> set[tuple[str, str]]:
    """(spec, check) pairs known to fail when the benchmark was defined.

    A run that meets only these is still correct: they are counted in
    ``failed`` and named in the run record, never filtered out.
    """
    data = json.loads((HERE / "known_failures.json").read_text())
    return {(e["spec"], e["check"]) for e in data["workloads"].get(name, [])}
