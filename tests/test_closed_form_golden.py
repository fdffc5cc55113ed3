"""Closed-form outputs past beta = 9, pinned as two SHA-256 digests.

Every other golden stops at beta <= 9.  These cover the 6,804 valid
cyclic specs at alpha <= 2, beta in {15, 21}, in enumeration order:

* ``type-rank-gray``: ``type_from_degrees``, the whole ``rank_spec``
  result and ``gray_linear``;
* ``kernel``: the whole ``kernel_spec`` result.

The kernel digest pins today's closed form, which ROADMAP item 1 fixes
(the minimum-degree/lcm choice of the kernel divisor disagrees with
enumeration at beta = 21); that change is expected to regenerate it.
Regenerate both with

    PYTHONPATH=src python tests/test_closed_form_golden.py > tests/golden/closed_forms.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from z2z4.cyclic import (
    enumerate_cyclic_specs,
    gray_linear,
    kernel_spec,
    rank_spec,
    type_from_degrees,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "closed_forms.json"
ALPHAS = (1, 2)
BETAS = (15, 21)
SPEC_COUNT = 6804


def digests() -> dict[str, object]:
    forms = hashlib.sha256()
    kernels = hashlib.sha256()
    count = 0
    for a in ALPHAS:
        for b in BETAS:
            for spec in enumerate_cyclic_specs(a, b):
                count += 1
                forms.update(repr((type_from_degrees(spec), rank_spec(spec),
                                   gray_linear(spec))).encode() + b"\n")
                kernels.update(repr(kernel_spec(spec)).encode() + b"\n")
    return {"specs": count, "type-rank-gray": forms.hexdigest(),
            "kernel": kernels.hexdigest()}


@pytest.fixture(scope="module")
def computed() -> dict[str, object]:
    return digests()


@pytest.fixture(scope="module")
def expected() -> dict[str, object]:
    return json.loads(GOLDEN.read_text())


def test_spec_count(computed, expected):
    assert computed["specs"] == expected["specs"] == SPEC_COUNT


@pytest.mark.parametrize("key", ["type-rank-gray", "kernel"])
def test_closed_forms_match_golden(key, computed, expected):
    assert computed[key] == expected[key]


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
