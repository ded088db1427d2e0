"""Lattice point counts of moduli spaces and the invariants derived from them.

The central object is the count N̄_{g,n}(b_1, …, b_n), defined for a stable
pair (g, n) and non-negative integer boundary parameters.  It vanishes when
b_1 + … + b_n is odd, and for fixed parities it is a symmetric polynomial
in the b_i² of degree 3g - 3 + n.  One recursion step, :func:`_step`,
removes one positive boundary, the root, by join and cut sums read off
tables of running sums (:func:`_running`): a join, or the genus cut at one
p, is one query of one table (:func:`_sum`), and the cut over a split into
two pieces is one dot product of the two pieces' tables, since
(root - p - q) / 2 counts the pairs (p', q') ≥ (p, q), of the same
parities, with p' + q' = root - 2.  Equal entries among the other, sorted,
boundaries give equal terms, so the step runs over their runs of equal
entries: a join once per distinct entry and a split once per run pattern,
each weighted by its number of labelled copies.  The cut is symmetric in
the two pieces of a split, so a split and its mirror are taken once,
counted twice (:func:`_stable_splits`).  Any positive entry may be the
root: the value table roots each sorted point at its largest entry, and
:func:`nbar_eval_asym` at the first argument, so where the first argument
is not the largest their agreement checks that the step does not depend on
its root.  On top of these sit the polynomial fit, the orbifold Euler
characteristics reached at b = 0, the intersection numbers read off the
top coefficients, and a scan for negative stored coefficients.

Inside the recursion a value is a reduced pair (numerator, denominator) of
ints.  Outside the closed forms for (0,3) and (1,1), the value table holds
one such pair per sorted point, the all-zero point included, where the value
is the polynomial continuation read off the fitted polynomial; the running
sums hold integer numerators over one denominator per entry.  Each step
sums integer numerators keyed by denominator and closes with one lcm and
one gcd, so a value costs one reduction, not one per term.  No bound on the
denominators is assumed.  A :class:`~fractions.Fraction` is built only where
a value leaves the module: :func:`nbar_eval`, :func:`nbar_eval_asym`, the fit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, prod
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .exact import HALF, _close
from .memo import clear_all, register
from .quasipoly import EngineError, QuasiPolynomial, _check_stable, is_stable, qp_fit


def _check_point(g: int, n: int, b: Sequence[int]) -> Tuple[int, ...]:
    """b as a tuple of ints; raises unless (g, n) is stable and b is n non-negative integers."""
    _check_stable(g, n)
    if len(b) != n:
        raise ValueError(f"expected {n} boundary parameters, got {len(b)}")
    if any(v < 0 or v != int(v) for v in b):
        raise ValueError("boundary parameters must be non-negative integers")
    return tuple(int(v) for v in b)


def _check_nonzero_point(g: int, n: int, b: Sequence[int]) -> Tuple[int, ...]:
    """:func:`_check_point`, and raises at the all-zero point, whose value is a polynomial continuation."""
    b = _check_point(g, n, b)
    if not any(b):
        raise ValueError(
            "the value at b = 0 is defined by polynomial continuation; "
            "evaluate the polynomial (nbar_poly, or the poly command) at zero"
        )
    return b


def br(p: int) -> int:
    """The weight [p]: p for positive p, and 1 at p = 0."""
    return p if p else 1


# -- the recursion ------------------------------------------------------------------------

Pair = Tuple[int, int]  # a value as (numerator, denominator): coprime, denominator positive

_ZERO: Pair = (0, 1)
_ONE: Pair = (1, 1)

_MEMO: Dict[Tuple[int, int, Tuple[int, ...]], Pair] = register("lattice.values", {})
_SUMS: Dict[Tuple[int, int, Tuple[int, ...]], List[int]] = register("lattice.sums", {})


def nbar_eval(g: int, n: int, b: Sequence[int]) -> Fraction:
    """The count N̄_{g,n}(b) for non-negative integers b, from the value table.

    The all-zero point is excluded here because its value is defined by
    polynomial continuation; use ``nbar_poly(g, n).evaluate(b)`` for it.
    """
    return Fraction(*_pair(g, n, _check_nonzero_point(g, n, b)))


def nbar_eval_asym(g: int, n: int, b: Sequence[int]) -> Fraction:
    """The same count by one step rooted in the first argument, which must be positive.

    Inner values come from the value table, whose points are rooted at
    their largest entry, so agreement with :func:`nbar_eval` at a b whose
    first entry is not the largest checks that the step does not depend on
    its root.
    """
    b = _check_point(g, n, b)
    if b[0] <= 0:
        raise ValueError("the asymmetric recursion needs a positive first argument")
    if sum(b) % 2 or (g, n) in ((0, 3), (1, 1)):
        return Fraction(*_pair(g, n, b))
    return Fraction(*_step(g, n, b[0], tuple(sorted(b[1:]))))


def _pair(g: int, n: int, b: Tuple[int, ...]) -> Pair:
    """Inner evaluator, as a reduced pair: assumes a stable (g, n) and non-negative b."""
    if sum(b) % 2:
        return _ZERO
    if (g, n) == (0, 3):
        return _ONE
    if (g, n) == (1, 1):
        return _close({1: b[0] * b[0] + 20}, 48)
    key = (g, n, tuple(sorted(b)))
    hit = _MEMO.get(key)
    if hit is None:
        s = key[2]
        hit = _MEMO[key] = _step(g, n, s[-1], s[:-1]) if s[-1] else _zero_value(g, n)
    return hit


def _step(g: int, n: int, root: int, rest: Tuple[int, ...]) -> Pair:
    """N̄_{g,n}(root, rest) by one step of the recursion, for a positive root and a sorted rest.

    2 root N̄ = Σ_j (the join of root + b_j, and that of |root - b_j| signed
    as root - b_j) + the cut of root, over the entries b_j of ``rest``.
    A join of m is one :func:`_sum` query at c = m over the other b_j; the
    cut's genus term is one query per p at c = root - p, over {p} ∪ rest
    at genus g - 1.  For each stable split I ⊔ J of ``rest`` the cut adds
    Σ_{p+q ≤ root-2} (root - p - q)[p][q] N̄(p, I) N̄(q, J), over p ≡ Σ I and
    q ≡ Σ J.  Since (root - p - q) / 2 counts the pairs (p', q') ≥ (p, q) of
    the same parities with p' + q' = root - 2, that is 2 Σ_{p'+q'=root-2}
    A_I[p'] A_J[q'], one dot product of the two pieces' running sums A
    (:func:`_running`).  Equal entries give equal terms, so joins and splits
    run over the runs of equal entries in ``rest``: a value v that appears
    r times is joined once with weight r, and a split is taken once per run
    pattern with weight its number of labelled splits.  The dot product is
    unchanged when the pieces (g1, I) and (g2, J) swap, so a split and its
    mirror are one entry with twice that weight (:func:`_stable_splits`).
    """
    acc: Dict[int, int] = {}
    runs: List[int] = []
    for j, v in enumerate(rest):
        if j and v == rest[j - 1]:
            continue
        r = rest.count(v)
        runs.append(r)
        others = rest[:j] + rest[j + 1:]
        _sum(acc, r, g, n - 1, others, root + v)
        _sum(acc, r if root > v else -r, g, n - 1, others, abs(root - v))
    if g >= 1:
        for p in range(root - 1):
            _sum(acc, br(p), g - 1, n + 1, tuple(sorted((p,) + rest)), root - p)
    for g1, si, g2, sj, ways in _stable_splits(g, tuple(runs)):
        part_i = tuple(rest[t] for t in si)
        part_j = tuple(rest[t] for t in sj)
        pi, pj = sum(part_i) % 2, sum(part_j) % 2
        m = (root - pi - pj) // 2  # the terms p' = pi, pi + 2, …, root - 2 - pj
        if m <= 0:
            continue
        a_i = _running(g1, len(si) + 1, part_i, root - 2 - pj)
        a_j = _running(g2, len(sj) + 1, part_j, root - 2 - pi)
        # A[t] sits at index 2 (t // 2) + 3: I's from p' = pi up, J's from q' = root - 2 - pi down
        dot = sum(map(mul, a_i[3:2 * m + 3:2], a_j[2 * m + 1:1:-2]))
        den = a_i[0] * a_j[0]
        acc[den] = acc.get(den, 0) + 2 * ways * dot
    return _close(acc, 2 * root)


def _running(g: int, n: int, spect: Tuple[int, ...], t: int) -> List[int]:
    """The running sums of N̄_{g,n}(q, spect), grown through q = t, for a sorted ``spect`` and t ≡ Σ spect.

    The entry [L, A[s], B[s], A[s + 2], …] holds, as integer numerators
    over one denominator L, A[u] = Σ_{q ≤ u, q ≡ u} [q] N̄(q, spect) and
    B[u] = Σ_{q ≤ u, q ≡ u} q [q] N̄(q, spect), from the empty sum at
    s = t % 2 - 2 on, so A[u] is at index 2 (u // 2) + 3.  It grows on
    demand, and all of it, L included, is rescaled in place when a new
    value's denominator does not divide L.  Computing a value may grow or
    rescale other entries, so read L only after the last call.
    """
    entry = _SUMS.get((g, n, spect))
    if entry is None:
        entry = _SUMS[(g, n, spect)] = [1, 0, 0]
    for q in range(len(entry) - 3 + t % 2, t + 1, 2):
        num, d = _pair(g, n, (q,) + spect)
        if entry[0] % d:
            scale = d // gcd(entry[0], d)
            entry[:] = [x * scale for x in entry]
        term = br(q) * num * (entry[0] // d)
        entry += (entry[-2] + term, entry[-1] + q * term)
    return entry


def _sum(acc: Dict[int, int], w: int, g: int, n: int, spect: Tuple[int, ...], c: int) -> None:
    """Adds w times Σ_{q ≤ c - 2, q ≡ c} (c - q)[q] N̄_{g,n}(q, spect) to ``acc``.

    ``spect`` is sorted and c ≡ Σ spect (mod 2).  The sum is c A[t] - B[t]
    at t = c - 2, read off the running sums of :func:`_running`.
    """
    if c < 2:
        return
    entry = _running(g, n, spect, c - 2)
    i = 2 * (c // 2) + 1
    acc[entry[0]] = acc.get(entry[0], 0) + w * (c * entry[i] - entry[i + 1])


@lru_cache(maxsize=None)
def _stable_splits(g: int, runs: Tuple[int, ...]) -> Tuple[Tuple[int, Tuple[int, ...], int, Tuple[int, ...], int], ...]:
    """Ways (g1, slots_i, g2, slots_j, weight) to share genus g and a sorted rest between two stable pieces.

    ``runs`` are the lengths of the rest's runs of equal entries, in order.
    Piece i takes the first t slots of each run and piece j the others; the
    ways = ∏ C(run, t) labelled splits that take t entries of each run have
    the same pieces, so one entry stands for all of them.  Each piece also
    gets one new boundary, so piece i is (g1, |slots_i| + 1).  The cut's
    summand is symmetric in its two pieces, so a split (g1, takes) and its
    mirror (g - g1, runs - takes), which has as many ways, are one entry:
    the lesser of the two as tuples, with weight 2 ways, or weight ways
    when the split is its own mirror.
    """
    starts = [sum(runs[:k]) for k in range(len(runs))]
    splits = []
    for takes in product(*(range(r + 1) for r in runs)):
        mirror = tuple(r - t for r, t in zip(runs, takes))
        slots_i = tuple(s for o, t in zip(starts, takes) for s in range(o, o + t))
        slots_j = tuple(s for o, t, r in zip(starts, takes, runs) for s in range(o + t, o + r))
        ways = prod(map(comb, runs, takes))
        for g1 in range(g + 1):
            twin = (g - g1, mirror)
            if (g1, takes) <= twin and is_stable(g1, len(slots_i) + 1) and is_stable(g - g1, len(slots_j) + 1):
                splits.append((g1, slots_i, g - g1, slots_j, ways if (g1, takes) == twin else 2 * ways))
    return tuple(splits)


register("lattice.splits", _stable_splits)


def _zero_value(g: int, n: int) -> Pair:
    """Value of the polynomial continuation at b = 0: its constant coefficient, in the all-even class."""
    value = nbar_poly(g, n).coefficient(0, (0,) * n)
    return value.numerator, value.denominator


# -- polynomial form ----------------------------------------------------------------------

_POLY_MEMO: Dict[Tuple[int, int, str], QuasiPolynomial] = register("lattice.polys", {})


def nbar_poly(g: int, n: int, engine: str = "comb") -> QuasiPolynomial:
    """The full parity-split polynomial form of N̄_{g,n}.

    ``engine`` is ``comb``, a fit of the recursion's value table, or ``tr``,
    the residue-based recursion on the spectral curve.
    """
    _check_stable(g, n)
    key = (g, n, engine)
    hit = _POLY_MEMO.get(key)
    if hit is not None:
        return hit
    if engine == "comb":
        qp = qp_fit(lambda b: Fraction(*_pair(g, n, b)), g, n)
    elif engine == "tr":
        from . import tr  # imported here so that a comb-only run never loads the engine

        qp = tr.tr_correlator(g, n)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    _POLY_MEMO[key] = qp
    return qp


def clear_caches() -> None:
    """Empty every in-memory memo table of the package, the residue engine's included.

    The tables are those in :mod:`nbar.memo`'s registry, so the next
    computation starts cold.
    """
    clear_all()


# -- Euler characteristics ------------------------------------------------------------------

_EULER_SEEDS: Dict[Tuple[int, int], Fraction] = {
    (0, 1): Fraction(0),
    (0, 2): Fraction(1),
    (1, 1): Fraction(5, 12),
    (2, 1): Fraction(247, 1440),
}


def euler_char(g: int, n: int) -> Fraction:
    """Orbifold Euler characteristic of the compactified moduli space, for stable (g, n).

    Computed by removing one puncture at a time down to the seeded one-point
    values.  One-point values are only seeded for g ≤ 2, so every higher
    genus is out of reach of this recursion and raises.  The value at (h, m)
    needs (h, m - 1) and values of lower genus h' at up to m + 2 (h - h')
    points, so the table is filled in that order, genus by genus, and each
    call of :func:`_euler` finds its inputs memoized: the Python stack stays
    one frame deep whatever n is.
    """
    _check_stable(g, n)
    for h in range(g + 1):
        for m in range(1, n + 2 * (g - h) + 1):
            _euler(h, m)
    return _euler(g, n)


@lru_cache(maxsize=None)
def _euler(g: int, n: int) -> Fraction:
    """The puncture-removal recursion; also answers the unstable seeds (0,1) and (0,2)."""
    seeded = _EULER_SEEDS.get((g, n))
    if seeded is not None:
        return seeded
    if n == 1:
        raise ValueError(f"the recursion reaches ({g}, 1), but one-point Euler characteristics are only seeded for g <= 2")
    m = n - 1
    total = (2 - 2 * g - m) * _euler(g, m)
    if g >= 1:
        total += HALF * _euler(g - 1, m + 2)
    for g1 in range(g + 1):
        g2 = g - g1
        for i in range(m + 1):
            j = m - i
            # factors at (0, 1) contribute nothing and must not be expanded
            if (g1 == 0 and i == 0) or (g2 == 0 and j == 0):
                continue
            total += (
                HALF
                * comb(m, i)
                * _euler(g1, i + 1)
                * _euler(g2, j + 1)
            )
    return total


register("lattice.euler", _euler)


# -- intersection numbers ---------------------------------------------------------------------


def psi_number(g: int, alphas: Sequence[int]) -> Fraction:
    """Intersection number ⟨ψ_1^{a_1} ⋯ ψ_n^{a_n}⟩ on the (g, n) moduli space.

    Read off the top-degree coefficients: for Σ a_i = 3g - 3 + n the
    coefficient of ∏ b_i^{2 a_i} in every parity class equals the
    intersection number divided by 2^{5g-6+2n} ∏ a_i!.  Each class stores
    one coefficient per orbit; the orbit of the exponents a, the first k of
    them in the odd block of class k, is read from every class; classes that
    disagree raise :class:`EngineError`.  For off-top total degree the number
    is zero by definition.
    """
    n = len(alphas)
    _check_stable(g, n)
    if any(a != int(a) or a < 0 for a in alphas):
        raise ValueError("psi exponents must be non-negative integers")
    alphas = tuple(int(a) for a in alphas)
    if sum(alphas) != 3 * g - 3 + n:
        return Fraction(0)
    qp = nbar_poly(g, n)
    seen = [qp.coefficient(k, alphas) for k in sorted(qp.orbits)]
    if not seen:
        raise EngineError("count polynomial has no parity classes")
    if len(set(seen)) != 1:
        raise EngineError(f"top coefficients disagree across parity classes: {seen}")
    return seen[0] * psi_scale(g, alphas)


def psi_scale(g: int, alphas: Sequence[int]) -> int:
    """2^{5g-6+2n} ∏ a_i!: a top-degree coefficient of N̄_{g,n} times this is ⟨ψ_1^{a_1} ⋯ ψ_n^{a_n}⟩_g."""
    return 2 ** (5 * g - 6 + 2 * len(alphas)) * prod(map(factorial, alphas))


# -- coefficient positivity --------------------------------------------------------------------


def positivity_report() -> List[Tuple[int, int, int, Tuple[int, ...], Fraction]]:
    """All negative stored coefficients over the reference table's exactly checkable (g, n) cases.

    Returns tuples (g, n, odd_count, orbit key, coefficient).  An empty
    report means every stored coefficient in range is non-negative.
    """
    from .golden import EXACT_CASES

    found = []
    for g, n in EXACT_CASES:
        qp = nbar_poly(g, n)
        for k, d in sorted(qp.orbits.items()):
            for key, c in sorted(d.items()):
                if c < 0:
                    found.append((g, n, k, key, c))
    return found
