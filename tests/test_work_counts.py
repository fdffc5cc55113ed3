"""The work of one sweep, pinned as exact call counts.

Timings move with the machine and its load; how many times each layer
runs does not.  ``test_sweep_work_counts`` counts the calls of the layers
below during a one-worker sweep of the 336 specs at alpha <= 2, beta in
{1, 3, 5, 7}, and compares them with ``golden/work_counts.json``.  A
change that adds or removes work in a layer moves its count; a change
that only reshapes the code leaves every count where it was.

Each function is counted by rebinding every ``z2z4`` module name bound
to it, as ``bench/tracing.py`` does, so a call between modules is
counted under the name the library looks it up by.  ``from_words`` is a
classmethod and is counted on the class, and so are the methods
``project_x`` and ``project_y``, so a projection built twice moves a
count, and ``CyclicSpec.__post_init__``: every spec the sweep builds,
enumerated or derived, runs its checks once, and a change that let a
spec skip them would move that count.  No layer counted here sits under
a cache, so the counts do not depend on what ran before.
"""

import functools
import json
import sys
from collections import Counter
from pathlib import Path

from z2z4 import code, cyclic
from z2z4.code import AdditiveCode
from z2z4.cyclic import CyclicSpec
from z2z4.verify import sweep

GOLDEN = Path(__file__).parent / "golden" / "work_counts.json"

FUNCTIONS = (
    (code, "group_basis"),
    (code, "_f2_rref"),
    (code, "_enumerate"),
    (cyclic, "materialize"),
    (code, "kernel_bruteforce"),
    (code, "span_bruteforce"),
    (code, "gray_preimage"),
    (code, "standard_form"),
    (cyclic, "kernel_spec"),
    (cyclic, "rank_spec"),
)


def _counting(fn, name: str, counts: Counter):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _rebind(monkeypatch, original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "z2z4" or mod_name.startswith("z2z4.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, key, wrapper)


def test_sweep_work_counts(monkeypatch):
    counts: Counter = Counter()
    for module, name in FUNCTIONS:
        original = getattr(module, name)
        _rebind(monkeypatch, original, _counting(original, name, counts))
    from_words = AdditiveCode.__dict__["from_words"].__func__
    monkeypatch.setattr(AdditiveCode, "from_words", classmethod(
        _counting(from_words, "AdditiveCode.from_words", counts)))
    for name in ("project_x", "project_y"):
        monkeypatch.setattr(AdditiveCode, name, _counting(
            getattr(AdditiveCode, name), f"AdditiveCode.{name}", counts))
    monkeypatch.setattr(CyclicSpec, "__post_init__", _counting(
        CyclicSpec.__post_init__, "CyclicSpec.__post_init__", counts))

    summary = sweep(alpha_max=2, betas=(1, 3, 5, 7), workers=1)

    assert (summary.total, summary.guarded) == (336, 0)
    assert dict(counts) == json.loads(GOLDEN.read_text())
