"""Both engines still reproduce the benchmark's reference polynomials byte for byte.

The benchmark checks every ladder output against the SHA-256 digests in
``perfbench/ref/digests.json`` and counts a mismatch as a failed operation.
This test reads the same digests, so a change of output fails the test suite
before it shows in the benchmark as ``ok_frac`` below 1.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from nbar import nbar_poly, qp_to_json

DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "ref" / "digests.json").read_text())


@pytest.mark.parametrize("engine", ("comb", "tr"))
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_engine_output_matches_the_benchmark_reference(name, engine):
    g, n = map(int, re.fullmatch(r"g(\d+)n(\d+)", name).groups())
    text = qp_to_json(nbar_poly(g, n, engine))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
