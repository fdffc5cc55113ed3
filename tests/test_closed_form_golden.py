"""Closed-form outputs past beta = 9, pinned as SHA-256 digests.

Every other golden stops at beta <= 9.  These cover the valid cyclic
specs at beta in {15, 21}, in enumeration order, with three digests
each:

* ``type-rank-gray``: ``type_from_degrees``, the whole ``rank_spec``
  result and ``gray_linear``;
* ``kernel``: the whole ``kernel_spec`` result;
* ``maximal-subcodes``: the whole ``maximal_linear_subcodes`` result.

The top level holds the 6,804 specs at alpha <= 2; ``wide`` holds the
17,820 at alpha in {3, 4}, the only ones where b has degree 3 or more.
Together they are the benchmark's closed-forms pool.  The wide digests
take longer, so they are slow-marked.

The kernel digests pin today's closed form, which ROADMAP item 1 fixes
(the minimum-degree/lcm choice of the kernel divisor disagrees with
enumeration at beta = 21); that change is expected to regenerate them.
Regenerate all with

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
    maximal_linear_subcodes,
    rank_spec,
    type_from_degrees,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "closed_forms.json"
ALPHAS = (1, 2)
WIDE_ALPHAS = (3, 4)
BETAS = (15, 21)
SPEC_COUNT = 6804
WIDE_SPEC_COUNT = 17820


def digests(alphas) -> dict[str, object]:
    forms = hashlib.sha256()
    kernels = hashlib.sha256()
    subcodes = hashlib.sha256()
    count = 0
    for a in alphas:
        for b in BETAS:
            for spec in enumerate_cyclic_specs(a, b):
                count += 1
                forms.update(repr((type_from_degrees(spec), rank_spec(spec),
                                   gray_linear(spec))).encode() + b"\n")
                kernels.update(repr(kernel_spec(spec)).encode() + b"\n")
                subcodes.update(repr(maximal_linear_subcodes(spec)).encode() + b"\n")
    return {"specs": count, "type-rank-gray": forms.hexdigest(),
            "kernel": kernels.hexdigest(), "maximal-subcodes": subcodes.hexdigest()}


@pytest.fixture(scope="module")
def computed() -> dict[str, object]:
    return digests(ALPHAS)


@pytest.fixture(scope="module")
def expected() -> dict[str, object]:
    return json.loads(GOLDEN.read_text())


def test_spec_count(computed, expected):
    assert computed["specs"] == expected["specs"] == SPEC_COUNT


@pytest.mark.parametrize("key", ["type-rank-gray", "kernel", "maximal-subcodes"])
def test_closed_forms_match_golden(key, computed, expected):
    assert computed[key] == expected[key]


@pytest.mark.slow
def test_wide_closed_forms_match_golden(expected):
    wide = expected["wide"]
    assert wide["specs"] == WIDE_SPEC_COUNT
    assert digests(WIDE_ALPHAS) == wide


if __name__ == "__main__":
    print(json.dumps({**digests(ALPHAS), "wide": digests(WIDE_ALPHAS)}, indent=1))
