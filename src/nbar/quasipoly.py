"""Parity-split symmetric quasi-polynomials in the squares of integer arguments.

The counting functions computed by this package are, for each fixed pattern
of argument parities, polynomials in b_1², …, b_n² that are symmetric under
permutations preserving the parity pattern.  A :class:`QuasiPolynomial`
stores one coefficient dictionary per number of odd arguments ("parity
class"); keys list the exponents of b_i² with the odd slots first.  Each
class dictionary is fully expanded: every block permutation of a key is
present with the same coefficient, so lookups never need symmetrization.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exact import linsolve
from .memo import register

ExpKey = Tuple[int, ...]
ClassDict = Dict[ExpKey, Fraction]
XiKey = Tuple[Tuple[int, int], ...]
XiTensor = Dict[XiKey, Fraction]


class QuasiPolynomial:
    """A parity-split polynomial in b_1², …, b_n² with exact coefficients."""

    __slots__ = ("g", "n", "classes")

    def __init__(self, g: int, n: int, classes: Dict[int, ClassDict]):
        self.g = g
        self.n = n
        cleaned: Dict[int, ClassDict] = {}
        for k, d in classes.items():
            if not 0 <= k <= n:
                raise ValueError(f"odd count {k} out of range for n={n}")
            dd = {tuple(key): Fraction(c) for key, c in d.items() if c}
            for key in dd:
                if len(key) != n:
                    raise ValueError(f"exponent key {key} has wrong length for n={n}")
            if dd:
                cleaned[k] = dd
        self.classes = cleaned

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, b: Sequence[int]) -> Fraction:
        """Value at an integer point; arguments may come in any order."""
        if len(b) != self.n:
            raise ValueError(f"expected {self.n} arguments, got {len(b)}")
        if any(v != int(v) for v in b):
            raise ValueError(f"arguments must be integers, got {tuple(b)}")
        b = [int(v) for v in b]
        k = sum(1 for v in b if v % 2)
        return _eval_dict(self.classes.get(k, {}), sorted(b, key=lambda v: v % 2, reverse=True))

    def coefficient(self, odd_count: int, exponents: Sequence[int]) -> Fraction:
        """Coefficient of ∏ b_i^{2 e_i} in the given parity class (odd slots first)."""
        return self.classes.get(odd_count, {}).get(tuple(exponents), Fraction(0))

    # -- algebra ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasiPolynomial):
            return NotImplemented
        return self.n == other.n and self.classes == other.classes

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted((k, tuple(sorted(d.items()))) for k, d in self.classes.items()))))

    def __sub__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        if self.n != other.n:
            raise ValueError("cannot combine quasi-polynomials in different arities")
        out: Dict[int, ClassDict] = {}
        for k in set(self.classes) | set(other.classes):
            d: ClassDict = dict(self.classes.get(k, {}))
            for key, c in other.classes.get(k, {}).items():
                d[key] = d.get(key, Fraction(0)) - c
            out[k] = d
        return QuasiPolynomial(self.g, self.n, out)

    def scale(self, c) -> "QuasiPolynomial":
        c = Fraction(c)
        return QuasiPolynomial(
            self.g, self.n,
            {k: {key: c * v for key, v in d.items()} for k, d in self.classes.items()},
        )

    @property
    def is_zero(self) -> bool:
        return not self.classes

    # -- pinning one argument ----------------------------------------------------

    def pin_odd(self, value: int) -> "QuasiPolynomial":
        """Substitute an odd integer for one odd-parity slot.

        Returns the resulting quasi-polynomial in the remaining n-1 arguments.
        Parity classes with no odd slot do not survive the substitution.
        """
        if value % 2 == 0:
            raise ValueError("pin_odd needs an odd value")
        v2 = Fraction(value * value)
        out: Dict[int, ClassDict] = {}
        for k, d in self.classes.items():
            if k == 0:
                continue
            nd = out.setdefault(k - 1, {})
            for key, c in d.items():
                nkey = key[1:]
                nd[nkey] = nd.get(nkey, Fraction(0)) + c * v2 ** key[0]
        return QuasiPolynomial(self.g, self.n - 1, out)

    def pin_even(self, value: int) -> "QuasiPolynomial":
        """Substitute an even integer for one even-parity slot."""
        if value % 2:
            raise ValueError("pin_even needs an even value")
        v2 = Fraction(value * value)
        out: Dict[int, ClassDict] = {}
        for k, d in self.classes.items():
            if k == self.n:
                continue
            nd = out.setdefault(k, {})
            for key, c in d.items():
                nkey = key[:-1]
                nd[nkey] = nd.get(nkey, Fraction(0)) + c * v2 ** key[-1]
        return QuasiPolynomial(self.g, self.n - 1, out)

    def __repr__(self) -> str:
        sizes = {k: len(d) for k, d in sorted(self.classes.items())}
        return f"QuasiPolynomial(g={self.g}, n={self.n}, classes={sizes})"


# -- serialization ----------------------------------------------------------------


def qp_serialize(qp: QuasiPolynomial) -> dict:
    """Plain-data form of a quasi-polynomial, suitable for JSON."""
    classes = []
    for k in sorted(qp.classes):
        terms = [
            {"exponents": list(key), "coeff": str(c)}
            for key, c in sorted(qp.classes[k].items())
        ]
        classes.append({"odd_count": k, "terms": terms})
    return {"g": qp.g, "n": qp.n, "classes": classes}


def qp_to_json(qp: QuasiPolynomial) -> str:
    return json.dumps(qp_serialize(qp), indent=2)


def qp_parse(data: object) -> QuasiPolynomial:
    """Rebuild a quasi-polynomial from plain data, with positional diagnostics."""

    def fail(path: str, msg: str):
        raise ValueError(f"{path}: {msg}")

    def natural(v: object) -> bool:
        # JSON true/false load as bool, a subclass of int
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    if not isinstance(data, dict):
        fail("$", f"expected object, got {type(data).__name__}")
    for field in ("g", "n", "classes"):
        if field not in data:
            fail("$", f"missing field {field!r}")
    g, n, classes = data["g"], data["n"], data["classes"]
    if not natural(g):
        fail("$.g", f"expected non-negative integer, got {g!r}")
    if not natural(n) or n < 1:
        fail("$.n", f"expected positive integer, got {n!r}")
    if not isinstance(classes, list):
        fail("$.classes", f"expected list, got {type(classes).__name__}")
    out: Dict[int, ClassDict] = {}
    for i, cls in enumerate(classes):
        path = f"$.classes[{i}]"
        if not isinstance(cls, dict):
            fail(path, f"expected object, got {type(cls).__name__}")
        if "odd_count" not in cls or "terms" not in cls:
            fail(path, "missing field 'odd_count' or 'terms'")
        k = cls["odd_count"]
        if not natural(k) or k > n:
            fail(f"{path}.odd_count", f"expected integer in [0, {n}], got {k!r}")
        if k in out:
            fail(f"{path}.odd_count", f"duplicate class {k}")
        terms = cls["terms"]
        if not isinstance(terms, list):
            fail(f"{path}.terms", f"expected list, got {type(terms).__name__}")
        d: ClassDict = {}
        for j, term in enumerate(terms):
            tpath = f"{path}.terms[{j}]"
            if not isinstance(term, dict) or "exponents" not in term or "coeff" not in term:
                fail(tpath, "expected object with 'exponents' and 'coeff'")
            exps = term["exponents"]
            if (
                not isinstance(exps, list)
                or len(exps) != n
                or not all(natural(e) for e in exps)
            ):
                fail(f"{tpath}.exponents", f"expected list of {n} non-negative integers, got {exps!r}")
            raw = term["coeff"]
            if not isinstance(raw, str):
                fail(f"{tpath}.coeff", f"expected rational string like '5/12', got {raw!r}")
            try:
                c = Fraction(raw)
            except (ValueError, ZeroDivisionError):
                fail(f"{tpath}.coeff", f"not a rational number: {raw!r}")
            key = tuple(exps)
            if key in d:
                fail(f"{tpath}.exponents", f"duplicate exponent key {key}")
            d[key] = c
        out[k] = d
    return QuasiPolynomial(g, n, out)


def qp_from_json(text: str) -> QuasiPolynomial:
    return qp_parse(json.loads(text))


# -- basis-coordinate tensors -------------------------------------------------------


def qp_to_xi_tensor(qp: QuasiPolynomial) -> XiTensor:
    """Coefficients in the per-slot basis indexed by (parity, exponent).

    The tensor assigns to each slot of the correlator a parity bit and an
    exponent of b²; it is the fully expanded (slot-ordered) view of the
    block-symmetric class dictionaries.
    """
    n = qp.n
    tensor: XiTensor = {}
    for k, d in qp.classes.items():
        for odd_slots in itertools.combinations(range(n), k):
            odd_set = set(odd_slots)
            even_slots = [i for i in range(n) if i not in odd_set]
            for key, c in d.items():
                entry: List[Tuple[int, int]] = [(0, 0)] * n
                for j, s in enumerate(odd_slots):
                    entry[s] = (1, key[j])
                for j, s in enumerate(even_slots):
                    entry[s] = (0, key[k + j])
                tensor[tuple(entry)] = c
    return tensor


def qp_from_xi_tensor(g: int, n: int, tensor: XiTensor) -> QuasiPolynomial:
    """Inverse of :func:`qp_to_xi_tensor`; checks slot-permutation symmetry."""
    classes: Dict[int, ClassDict] = {}
    for key, c in tensor.items():
        if len(key) != n:
            raise ValueError(f"tensor key {key} has wrong arity for n={n}")
        if not c:
            continue
        odd = [kk for p, kk in key if p == 1]
        even = [kk for p, kk in key if p == 0]
        k = len(odd)
        exps = tuple(odd + even)
        d = classes.setdefault(k, {})
        if exps in d and d[exps] != c:
            raise ValueError(
                f"tensor is not slot-symmetric: class {k} key {exps} has conflicting "
                f"coefficients {d[exps]} and {c}"
            )
        d[exps] = c
    qp = QuasiPolynomial(g, n, classes)
    # every block permutation of every key must be present with equal weight
    for k, d in qp.classes.items():
        for key, c in d.items():
            for op in set(itertools.permutations(key[:k])):
                for ep in set(itertools.permutations(key[k:])):
                    if d.get(op + ep) != c:
                        raise ValueError(
                            f"tensor is not slot-symmetric: class {k} misses permutation "
                            f"{op + ep} of {key}"
                        )
    # and re-expanding must reproduce the input exactly, so that no slot
    # placement of any key was silently absent
    given = {key: Fraction(c) for key, c in tensor.items() if c}
    if qp_to_xi_tensor(qp) != given:
        raise ValueError("tensor is not slot-symmetric: expansion mismatch")
    return qp


# -- exact fitting --------------------------------------------------------------------

# (odd count, arity, degree) -> (expanded keys per unknown, fit points, fit matrix, checked points)
FitPlan = Tuple[List[List[ExpKey]], List[Tuple[int, ...]], List[List[int]], List[Tuple[int, ...]]]
_FIT_PLANS: Dict[Tuple[int, int, int], FitPlan] = register("quasipoly.fit_plans", {})


def qp_fit(
    func: Callable[[Tuple[int, ...]], Fraction],
    g: int,
    n: int,
    degree: Optional[int] = None,
) -> QuasiPolynomial:
    """Fit the parity classes of a symmetric quasi-polynomial from exact values.

    ``func`` is called on block-sorted points of strictly positive integers,
    the odd arguments first.  ``degree`` bounds the *total* degree in the
    b_i² and defaults to 3g - 3 + n.  The unknowns of class k are the
    block-symmetric monomials m_λ(odd b²) · m_μ(even b²) with λ of at most
    k parts, μ of at most n - k parts and |λ| + |μ| ≤ degree.  Each unknown
    (λ, μ) has its own point: odd entries 2λ_i + 1 and even entries
    2μ_j + 2, zero-padded and sorted within each block (:func:`_nodes`).
    The class is solved on the points of degree, then checked exactly on
    those of degree + 2, which contain them; any discrepancy raises.  A
    returned class therefore equals ``func`` on its class whenever ``func``
    is a block-symmetric polynomial of total degree at most degree + 2 there.
    """
    D = degree if degree is not None else 3 * g - 3 + n
    if D < 0:
        raise ValueError(f"degree bound {D} is negative")

    classes: Dict[int, ClassDict] = {}
    for k in range(n + 1):
        expansions, fit_points, matrix, check_points = _fit_plan(k, n, D)
        values = {b: Fraction(func(b)) for b in check_points}
        coeffs = linsolve(matrix, [values[b] for b in fit_points])
        fitted: ClassDict = {key: c for keys, c in zip(expansions, coeffs) if c for key in keys}
        for b in check_points:
            got = _eval_dict(fitted, b)
            if got != values[b]:
                raise ValueError(
                    f"fit for class {k} fails verification at b={b}: "
                    f"fitted {got}, actual {values[b]}"
                )
        # each unknown was spread over every block permutation of its key, and
        # lookups rely on that: re-check the stored class
        for key, c in fitted.items():
            for op in set(itertools.permutations(key[:k])):
                for ep in set(itertools.permutations(key[k:])):
                    if fitted.get(op + ep, Fraction(0)) != c:
                        raise ValueError(f"fitted class {k} is not block-symmetric at {key}")
        if fitted:
            classes[k] = fitted
    return QuasiPolynomial(g, n, classes)


def _fit_plan(k: int, n: int, D: int) -> FitPlan:
    """Unknowns, solve points and certificate points of class k under degree D (memoized).

    ``expansions`` lists, per unknown (λ, μ), the exponent keys of its
    expanded monomials; ``matrix`` holds the unknowns' values at the fit points.
    """
    plan = _FIT_PLANS.get((k, n, D))
    if plan is None:
        small = _block_basis(k, n - k, D)
        fit_points = _nodes(small, k, n - k)
        expansions = [
            [a + c for a in _padded_perms(lam, k) for c in _padded_perms(mu, n - k)]
            for lam, mu in small
        ]
        matrix = list(map(_row_maker(small, k, n), fit_points))
        check_points = _nodes(_block_basis(k, n - k, D + 2), k, n - k)
        plan = _FIT_PLANS[(k, n, D)] = (expansions, fit_points, matrix, check_points)
    return plan


def _nodes(basis, k: int, m: int) -> List[Tuple[int, ...]]:
    """One block-sorted point per unknown (λ, μ) of ``basis``, by Σb, then lexicographically.

    The point lists 2λ_i + 1 over the k odd slots and 2μ_j + 2 over the m
    even ones, with λ and μ padded by zeros.  For a basis of total degree D
    these are the orbit representatives of the lower set
    {(a, c) ∈ ℕ^k × ℕ^m : |a| + |c| ≤ D} on the per-axis nodes (2i + 1)² and
    (2j + 2)² in the b².  That set is unisolvent for total degree D
    (Dyn–Floater, *Multivariate polynomial interpolation on lower sets*,
    2014) and invariant under S_k × S_m, so a block-symmetric polynomial of
    degree ≤ D that vanishes on these points is zero: the square system of
    the basis at its nodes is non-singular.
    """
    points = [
        tuple(sorted(2 * e + 1 for e in lam + (0,) * (k - len(lam))))
        + tuple(sorted(2 * e + 2 for e in mu + (0,) * (m - len(mu))))
        for lam, mu in basis
    ]
    return sorted(points, key=lambda b: (sum(b), b))


def _partitions(parts: int, size: int) -> List[Tuple[int, ...]]:
    """Partitions (non-increasing positive tuples) with at most ``parts`` parts and sum ≤ ``size``."""
    out: List[Tuple[int, ...]] = [()]
    if parts:
        for first in range(1, size + 1):
            for rest in _partitions(parts - 1, size - first):
                if not rest or rest[0] <= first:
                    out.append((first,) + rest)
    return out


def _block_basis(k: int, m: int, D: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Pairs (λ, μ), λ of at most k parts and μ of at most m, with |λ| + |μ| ≤ D."""
    return [(lam, mu) for lam in _partitions(k, D) for mu in _partitions(m, D - sum(lam))]


def _padded_perms(part: Tuple[int, ...], length: int) -> List[ExpKey]:
    """Distinct orderings of a partition padded with zeros to ``length`` slots, sorted."""
    return sorted(set(itertools.permutations(part + (0,) * (length - len(part)))))


def _row_maker(basis, k: int, n: int) -> Callable[[Tuple[int, ...]], List[int]]:
    """A function giving the values of the block-symmetric monomials of ``basis`` at a point."""
    odd = {lam: _padded_perms(lam, k) for lam, _ in basis}
    even = {mu: _padded_perms(mu, n - k) for _, mu in basis}

    def monomial(xs: List[int], exps: List[ExpKey]) -> int:
        total = 0
        for key in exps:
            term = 1
            for x, e in zip(xs, key):
                if e:
                    term *= x ** e
            total += term
        return total

    def row(b: Tuple[int, ...]) -> List[int]:
        xs = [v * v for v in b[:k]]
        ys = [v * v for v in b[k:]]
        mo = {lam: monomial(xs, exps) for lam, exps in odd.items()}
        me = {mu: monomial(ys, exps) for mu, exps in even.items()}
        return [mo[lam] * me[mu] for lam, mu in basis]

    return row


def _eval_dict(d: ClassDict, b: Sequence[int]) -> Fraction:
    """Value of one parity class at b, given with its odd entries first."""
    total = Fraction(0)
    sq = [v * v for v in b]
    for key, c in d.items():
        term = c
        for v2, e in zip(sq, key):
            if e:
                term *= Fraction(v2) ** e
        total += term
    return total
