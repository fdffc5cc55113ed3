"""The benchmark's tracer can still bind every library name it wraps.

``bench/tracing.py`` patches functions and ``AdditiveCode`` methods by
name and reads ``_gray_identity_holds``' default probe limit.  Renaming
or deleting one of them would otherwise break only the benchmark; here
it fails at ``install``.
"""

import sys
from pathlib import Path

import z2z4
from z2z4.code import AdditiveCode

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _z2z4_bindings() -> dict:
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "z2z4" or n.startswith("z2z4."))]
    owners.append(AdditiveCode)
    return {(id(o), key): val for o in owners for key, val in list(vars(o).items())}


def test_tracer_installs_and_restores_every_hook(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = _z2z4_bindings()
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        assert z2z4.code.howell_rows is not before[(id(z2z4.code), "howell_rows")]
    finally:
        tracer.uninstall()
    for owner, key, original in patched:
        assert vars(owner)[key] is original, key
    after = _z2z4_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
