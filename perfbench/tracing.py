"""Spans and counters for the traced pass, attached from outside the package.

Tracing rebinds public attributes at the module where their callers look
them up, so no file under src/ changes.  Each wrapped call records a span
``[name, start, end, parent]`` in memory; the worker writes the list out when
the pass ends and run.py turns it into per-layer metrics.  A layer's self
time is its spans' duration minus the time covered by their direct children.
Hot methods get call counters instead of spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import Callable, Dict, List

from common import LADDER_CASES, case_name
from speed import SpeedProbe, clock


def _wchar() -> int:
    """Bytes this process has passed to write() so far (Linux)."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.times: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- wrappers ------------------------------------------------------------------

    def spanned(self, name, fn: Callable) -> Callable:
        """``fn`` recording one span per call; ``name`` may be a function of the args."""
        spans, stack = self.spans, self._stack
        naming = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([naming(*args, **kwargs), clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def counted(self, name: str, fn: Callable, timed: bool = False) -> Callable:
        """``fn`` with a call counter and, if ``timed``, its outermost-call time."""
        counts, times = self.counts, self.times
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if not timed or depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += clock() - t0
                depth[0] -= 1

        return wrapper

    def _rebind(self, owner, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- attaching to the package ----------------------------------------------------

    def install(self) -> None:
        from nbar import cache, cli, exact, lattice, quasipoly, tr

        def tagged(prefix):
            return lambda g, n, *rest, **kw: f"{prefix}.{case_name(g, n)}"

        self._rebind(lattice, "nbar_poly", self.spanned(tagged("lattice.poly"), lattice.nbar_poly))
        self._rebind(lattice, "nbar_eval", self.spanned("lattice.eval", lattice.nbar_eval))
        self._rebind(lattice, "nbar_eval_asym", self.spanned("lattice.eval_asym", lattice.nbar_eval_asym))

        fit = self.spanned("quasipoly.fit", lattice.qp_fit)
        spanned = self.spanned

        def qp_fit(func, *args, **kwargs):
            return fit(spanned("lattice.value", func), *args, **kwargs)

        self._rebind(lattice, "qp_fit", qp_fit)
        self._rebind(quasipoly, "linsolve", self.spanned("exact.linsolve", quasipoly.linsolve))
        self._rebind(tr, "linsolve", self.spanned("exact.linsolve", tr.linsolve))
        self._rebind(tr, "tr_tensor", self.spanned(tagged("tr.tensor"), tr.tr_tensor))
        self._rebind(tr, "xi_decompose", self.spanned("tr.xi_decompose", tr.xi_decompose))
        self._rebind(tr, "qp_from_xi_tensor", self.spanned("quasipoly.from_xi", tr.qp_from_xi_tensor))

        get = self.spanned("cache.get", cache.cache_get)
        put = self.spanned("cache.put", cache.cache_put)
        counts = self.counts

        def cache_get(*args, **kwargs):
            qp = get(*args, **kwargs)
            counts["cache.hits"] += qp is not None
            return qp

        def cache_put(*args, **kwargs):
            before = _wchar()
            try:
                return put(*args, **kwargs)
            finally:
                counts["cache.bytes_written"] += _wchar() - before

        self._rebind(cache, "cache_get", cache_get)
        self._rebind(cache, "cache_put", cache_put)
        self._rebind(cache, "qp_to_json", self.spanned("quasipoly.json", cache.qp_to_json))
        self._rebind(cache, "qp_from_json", self.spanned("quasipoly.json", cache.qp_from_json))
        self._rebind(cli, "render_poly", self.spanned("cli.render", cli.render_poly))

        self._rebind(exact.RationalFunction, "__add__",
                     self.counted("exact.rf_add", exact.RationalFunction.__add__, timed=True))
        self._rebind(exact.Poly, "gcd", self.counted("exact.poly_gcd", exact.Poly.gcd))
        self._rebind(exact.LaurentSeries, "__mul__", self.counted("exact.laurent_mul", exact.LaurentSeries.__mul__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "times": dict(self.times)}


def layer_metrics(trace: dict) -> Dict[str, float]:
    """Per-layer metrics from a dumped trace (everything but trace.overhead_s).

    Span times are turned into reference seconds with the speed probe's
    samples from the same pass; ``exact.rf_add_s`` stays in raw CPU seconds.
    """
    probe = SpeedProbe()
    probe.starts, probe.costs = trace["probe"]
    spans = [(name, probe.ref_seconds(start, end), parent) for name, start, end, parent in trace["spans"]]
    counts = Counter(trace["counts"])
    times = defaultdict(float, trace["times"])
    calls: Counter = Counter()
    incl: Dict[str, float] = defaultdict(float)
    child: List[float] = [0.0] * len(spans)
    for name, took, parent in spans:
        calls[name] += 1
        incl[name] += took
        if parent >= 0:
            child[parent] += took
    own: Dict[str, float] = defaultdict(float)
    for (name, took, _), covered in zip(spans, child):
        own[name] += took - covered

    gets = calls["cache.get"]
    out = {
        "lattice.value_calls": calls["lattice.value"],
        "lattice.value_s": incl["lattice.value"],
        "lattice.eval_s": incl["lattice.eval"],
        "lattice.eval_asym_s": incl["lattice.eval_asym"],
    }
    for g, n in LADDER_CASES:
        out[f"lattice.poly_s.{case_name(g, n)}"] = incl[f"lattice.poly.{case_name(g, n)}"]
    out.update({
        "quasipoly.fit_self_s": own["quasipoly.fit"],
        "quasipoly.from_xi_s": incl["quasipoly.from_xi"],
        "quasipoly.json_s": incl["quasipoly.json"],
        "exact.linsolve_calls": calls["exact.linsolve"],
        "exact.linsolve_s": incl["exact.linsolve"],
        "exact.rf_add_calls": counts["exact.rf_add"],
        "exact.rf_add_s": times["exact.rf_add"],
        "exact.poly_gcd_calls": counts["exact.poly_gcd"],
        "exact.laurent_mul_calls": counts["exact.laurent_mul"],
    })
    for g, n in LADDER_CASES:
        out[f"tr.tensor_self_s.{case_name(g, n)}"] = own[f"tr.tensor.{case_name(g, n)}"]
    out.update({
        "tr.xi_decompose_calls": calls["tr.xi_decompose"],
        "tr.xi_decompose_s": incl["tr.xi_decompose"],
        "cache.get_calls": gets,
        "cache.get_s": incl["cache.get"],
        "cache.hit_ratio": counts["cache.hits"] / gets if gets else 0.0,
        "cache.put_calls": calls["cache.put"],
        "cache.put_s": incl["cache.put"],
        "cache.bytes_written": counts["cache.bytes_written"],
        "cli.render_s": incl["cli.render"],
    })
    return out
