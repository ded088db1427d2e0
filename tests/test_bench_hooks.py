"""The benchmark's tracer must still attach to the package and detach cleanly.

``perfbench/tracing.py`` rebinds public attributes of the package (for
example ``tr.linsolve`` and ``lattice.nbar_poly``) to record spans.  Renaming
or deleting one of them breaks the traced benchmark pass; this test makes it
break the test suite as well.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from nbar import cache, cli, exact, lattice, memo, quasipoly, tr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HOOKED = (lattice, quasipoly, tr, cache, cli, exact.RationalFunction, exact.Poly, exact.LaurentSeries)


def test_tracer_records_spans_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("common", "speed", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = importlib.import_module("tracing")
    before = [dict(vars(owner)) for owner in HOOKED]
    # the spans below need a cold start; later tests get the warm dict memos back,
    # so that they do not refit the polynomials that earlier tests built
    saved = {name: dict(table) for name, table in memo._TABLES.items() if isinstance(table, dict)}
    lattice.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lattice.nbar_poly(0, 4)
        tr.tr_correlator(0, 4)
    finally:
        tracer.uninstall()
        for name, entries in saved.items():
            memo._TABLES[name].clear()
            memo._TABLES[name].update(entries)
    names = {span[0] for span in tracer.spans}
    for name in ("lattice.poly.g0n4", "quasipoly.fit", "tr.tensor.g0n4", "tr.xi_decompose",
                 "exact.linsolve", "quasipoly.from_xi"):
        assert name in names, name
    # the recursion bypasses the rebound tr_tensor, so the per-layer tensor times stay top-level
    assert [span[0] for span in tracer.spans if span[0].startswith("tr.tensor.")] == ["tr.tensor.g0n4"]
    for owner, old in zip(HOOKED, before):
        now = vars(owner)
        assert now.keys() == old.keys(), owner
        for attr, value in old.items():
            assert now[attr] is value, (owner, attr)
