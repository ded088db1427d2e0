"""Parity-split symmetric quasi-polynomials in the squares of integer arguments.

The counting functions computed by this package are, for each fixed pattern
of argument parities, polynomials in b_1², …, b_n² that are symmetric under
permutations preserving the parity pattern.  A :class:`QuasiPolynomial`
stores, per number k of odd arguments ("parity class"), one coefficient per
block orbit (λ, μ): the coefficient of m_λ(odd b²) · m_μ(even b²), keyed by
the exponents of b_i² with the k odd slots first and each block sorted
ascending.  :attr:`QuasiPolynomial.classes` is the expanded view, with every
block permutation of every orbit key; JSON and rendering list those terms.
Data coming in (expanded JSON terms, residue tensors keyed by root and sorted
spectators) is collapsed to orbits under one exact certificate (:func:`_collapse`).

:func:`qp_fit` recovers a class from exact values by forward substitution in
the Newton basis of its interpolation nodes, a triangular system with no
elimination, and certifies the result exactly on a larger set of points, all
in integers.  Every sum over the arrangements of a block is one removal
recursion (:func:`_removal_sums`) on a per-axis integer table: node values
and coefficients of the Newton basis, or powers.  The tables of the nodes
grow on demand and their sums are memoized across fits; the solve, the change
of basis, the certificate and :meth:`QuasiPolynomial.evaluate` pair an odd
block's sum with an even block's (:func:`_contraction`); integers over one
denominator are summed and reduced by the helpers of :mod:`nbar.exact`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .exact import _close, _integral, _lcm_sum, _reduced
from .exact import linsolve  # linsolve is not called here; perfbench/tracing.py rebinds it by name
from .memo import register

ExpKey = Tuple[int, ...]
ClassDict = Dict[ExpKey, Fraction]
XiIndex = Tuple[int, int]  # one basis function ξ_{parity,k}, as (parity, k)
XiKey = Tuple[XiIndex, ...]  # a tensor key: one ξ index per slot
XiTensor = Dict[XiKey, Fraction]


class EngineError(ValueError):
    """An exact certificate of either engine failed, so the result is untrusted; ``nbar`` exits 3.

    A ``ValueError``, so that every handler of bad input, a cache read's included, catches it too.
    """


def is_stable(g: int, n: int) -> bool:
    return g >= 0 and n >= 1 and 2 * g - 2 + n > 0


def _check_stable(g: int, n: int) -> None:
    if not is_stable(g, n):
        raise ValueError(f"(g, n) = ({g}, {n}) is not stable")


class QuasiPolynomial:
    """A parity-split polynomial in b_1², …, b_n² with exact coefficients, one per block orbit."""

    __slots__ = ("g", "n", "orbits")

    def __init__(self, g: int, n: int, orbits: Dict[int, ClassDict]):
        # as in qp_parse: a polynomial in no arguments has no JSON form that reads back
        if not (type(n) is int and n >= 1):
            raise ValueError(f"n = {n!r} is not a positive integer")
        self.g = g
        self.n = n
        cleaned: Dict[int, ClassDict] = {}
        for k, d in orbits.items():
            # type(k) is int, as in qp_parse: a bool odd count would be written to JSON as true
            if not (type(k) is int and 0 <= k <= n):
                raise ValueError(f"odd count {k!r} out of range for n={n}")
            dd: ClassDict = {}
            for key, c in d.items():
                # a Fraction is kept as it is; only other numbers are converted
                c = c if isinstance(c, Fraction) else _rational(c)
                if not c:
                    continue
                key = tuple(key)
                if len(key) != n:
                    raise ValueError(f"exponent key {key} has wrong length for n={n}")
                # type(e) is int, not isinstance: a bool exponent would be written to JSON as true
                if not all(type(e) is int and e >= 0 for e in key):
                    raise ValueError(f"exponent key {key} has an exponent that is not a non-negative integer")
                if key != _sort_blocks(key, k):
                    raise ValueError(f"exponent key {key} of class {k} is not sorted within its blocks")
                dd[key] = c
            if dd:
                cleaned[k] = dd
        self.orbits = cleaned

    @property
    def classes(self) -> Dict[int, ClassDict]:
        """The expanded view: every block permutation of every orbit key, with its orbit's coefficient."""
        return {
            k: {key: c for orbit, c in d.items() for key in _placements(orbit, k)}
            for k, d in self.orbits.items()
        }

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, b: Sequence[int]) -> Fraction:
        """Value at an integer point; arguments may come in any order."""
        if len(b) != self.n:
            raise ValueError(f"expected {self.n} arguments, got {len(b)}")
        if any(v != int(v) for v in b):
            raise ValueError(f"arguments must be integers, got {tuple(b)}")
        xs = [int(v) ** 2 for v in b if v % 2]
        ys = [int(v) ** 2 for v in b if v % 2 == 0]
        k = len(xs)
        d = self.orbits.get(k, {})
        top = max((e for key in d for e in key), default=0)
        value = _contraction(k, d, _removal_sums(_powers(xs, top), {}), _removal_sums(_powers(ys, top), {}))
        return Fraction(value(tuple(range(k)) + tuple(range(self.n - k))))

    def coefficient(self, odd_count: int, exponents: Sequence[int]) -> Fraction:
        """Coefficient of ∏ b_i^{2 e_i} in the given parity class (odd slots first)."""
        if not (type(odd_count) is int and 0 <= odd_count <= self.n):
            raise ValueError(f"odd count {odd_count!r} out of range for n={self.n}")
        if len(exponents) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(exponents)}")
        if not all(type(e) is int and e >= 0 for e in exponents):
            raise ValueError(f"exponents must be non-negative integers, got {tuple(exponents)}")
        key = _sort_blocks(tuple(exponents), odd_count)
        return self.orbits.get(odd_count, {}).get(key, Fraction(0))

    # -- algebra ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasiPolynomial):
            return NotImplemented
        return (self.g, self.n, self.orbits) == (other.g, other.n, other.orbits)

    def __hash__(self) -> int:
        return hash((self.g, self.n, tuple(sorted((k, tuple(sorted(d.items()))) for k, d in self.orbits.items()))))

    def __sub__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        if self.n != other.n:
            raise ValueError("cannot combine quasi-polynomials in different arities")
        out: Dict[int, ClassDict] = {}
        for k in set(self.orbits) | set(other.orbits):
            d: ClassDict = dict(self.orbits.get(k, {}))
            for key, c in other.orbits.get(k, {}).items():
                d[key] = d.get(key, Fraction(0)) - c
            out[k] = d
        return QuasiPolynomial(self.g, self.n, out)

    def scale(self, c) -> "QuasiPolynomial":
        c = _rational(c)
        return QuasiPolynomial(
            self.g, self.n,
            {k: {key: c * v for key, v in d.items()} for k, d in self.orbits.items()},
        )

    # -- pinning one argument ----------------------------------------------------

    def pin_even(self, value: int) -> "QuasiPolynomial":
        """Substitute an even integer for one even-parity slot.

        With y = value², m_μ(y_1, …, y_m) = Σ over the distinct parts e of μ
        of y^e · m_{μ∖e}(y_1, …, y_{m-1}), so each orbit (λ, μ) spreads over
        the orbits (λ, μ∖e).  The class with no even slot does not survive.
        """
        if value % 2:
            raise ValueError("pin_even needs an even value")
        v2 = value * value
        out: Dict[int, ClassDict] = {}
        for k, d in self.orbits.items():
            if k == self.n:
                continue
            nd = out.setdefault(k, {})
            for key, c in d.items():
                for e, rest in _removals(key[k:]):
                    nkey = key[:k] + rest
                    nd[nkey] = nd.get(nkey, Fraction(0)) + c * v2 ** e
        return QuasiPolynomial(self.g, self.n - 1, out)

    def __repr__(self) -> str:
        sizes = {k: len(d) for k, d in sorted(self.orbits.items())}
        return f"QuasiPolynomial(g={self.g}, n={self.n}, orbits={sizes})"


def _rational(c) -> Fraction:
    """An exact coefficient as a Fraction; a float is refused, as its binary value is rarely the rational meant."""
    if isinstance(c, float):
        raise ValueError(f"coefficient {c!r} is a float; give an int, a Fraction or a rational string such as '1/10'")
    return Fraction(c)


# -- orbits and their placements --------------------------------------------------


def _sort_blocks(key: ExpKey, k: int) -> ExpKey:
    """The orbit key of an exponent key: its first k entries and the rest, each sorted ascending."""
    return tuple(sorted(key[:k])) + tuple(sorted(key[k:]))


def _removals(block: tuple) -> List[Tuple[object, tuple]]:
    """(e, the rest) for each distinct entry e of an ascending tuple, the rest being ascending too."""
    return [(e, block[:i] + block[i + 1:]) for i, e in enumerate(block) if i == 0 or block[i - 1] != e]


@lru_cache(maxsize=None)
def _arrangements(block: tuple) -> Tuple[tuple, ...]:
    """The distinct orderings of an ascending tuple, in lexicographic order."""
    if len(block) <= 1:
        return (block,)
    return tuple((e,) + tail for e, rest in _removals(block) for tail in _arrangements(rest))


register("quasipoly.arrangements", _arrangements)


def _placements(orbit: ExpKey, k: int) -> List[ExpKey]:
    """Every exponent key of an orbit: the distinct orderings within each block."""
    return [a + c for a in _arrangements(orbit[:k]) for c in _arrangements(orbit[k:])]


def _placement_count(k: int, orbit: ExpKey) -> int:
    """How many keys :func:`_placements` lists, k!/∏ mult! · (n - k)!/∏ mult!, without listing them."""
    count = factorial(k) * factorial(len(orbit) - k)
    for block in (orbit[:k], orbit[k:]):
        for e in set(block):
            count //= factorial(block.count(e))
    return count


def _collapse(
    entries: Iterable[Tuple[int, ExpKey, Fraction]],
    spread: Callable[[int, ExpKey], int] = _placement_count,
) -> Dict[int, ClassDict]:
    """Orbit coefficients of expanded data, certified in one pass.

    ``entries`` are distinct (odd count k, key with the k odd slots first,
    non-zero coefficient).  Every entry must carry its orbit's coefficient,
    and each orbit of class k must be hit exactly ``spread(k, orbit)`` times:
    once per placement for JSON, once per distinct root for a tensor.  So
    every entry of the orbit is present; otherwise :class:`EngineError` is raised.
    """
    orbits: Dict[int, ClassDict] = {}
    hits: Dict[Tuple[int, ExpKey], int] = {}
    for k, key, c in entries:
        orbit = _sort_blocks(key, k)
        have = orbits.setdefault(k, {}).setdefault(orbit, c)
        if have is not c and have != c:
            raise EngineError(f"not slot-symmetric: class {k} key {key} has {c}, its orbit {orbit} has {have}")
        hits[k, orbit] = hits.get((k, orbit), 0) + 1
    for (k, orbit), hit in hits.items():
        want = spread(k, orbit)
        if hit != want:
            raise EngineError(f"not slot-symmetric: class {k} orbit {orbit} has {hit} of its {want} entries")
    return orbits


# -- serialization ----------------------------------------------------------------


def qp_serialize(qp: QuasiPolynomial) -> dict:
    """Plain-data form of a quasi-polynomial, suitable for JSON: every term of the expanded view."""
    classes = []
    for k, d in sorted(qp.orbits.items()):
        texts = {orbit: str(c) for orbit, c in d.items()}  # each coefficient formatted once
        placed = sorted((key, text) for orbit, text in texts.items() for key in _placements(orbit, k))
        terms = [{"exponents": list(key), "coeff": text} for key, text in placed]
        classes.append({"odd_count": k, "terms": terms})
    return {"g": qp.g, "n": qp.n, "classes": classes}


def _json_array(items: Sequence[str], indent: str) -> str:
    """Already encoded items as the JSON array that ``indent=2`` lays out at ``indent``."""
    if not items:
        return "[]"
    inner = f",\n{indent}  "
    return f"[\n{indent}  {inner.join(items)}\n{indent}]"


def qp_to_json(qp: QuasiPolynomial) -> str:
    """``json.dumps(qp_serialize(qp), indent=2)``, byte for byte, written directly.

    The standard encoder falls back to pure Python under ``indent``; here each
    term fills one template, in :func:`qp_serialize`'s order.  Nothing needs
    escaping: every value is an int or a ``str(Fraction)``.
    """
    # a term is head, its exponents, then its orbit's tail
    head = '{\n          "exponents": [\n            '
    classes = []
    for k, d in sorted(qp.orbits.items()):
        # each coefficient formatted once, into the tail that its orbit's placements share
        tails = {orbit: f'\n          ],\n          "coeff": "{c}"\n        }}' for orbit, c in d.items()}
        placed = sorted((key, tail) for orbit, tail in tails.items() for key in _placements(orbit, k))
        terms = [head + ",\n            ".join(map(str, key)) + tail for key, tail in placed]
        classes.append(f'{{\n      "odd_count": {k},\n      "terms": {_json_array(terms, "      ")}\n    }}')
    return f'{{\n  "g": {qp.g},\n  "n": {qp.n},\n  "classes": {_json_array(classes, "  ")}\n}}'


def qp_parse(data: object) -> QuasiPolynomial:
    """Rebuild a quasi-polynomial from plain data, with positional diagnostics; see :func:`_collapse`.

    One pass per term checks its shape, exponents and coefficient, in that order; the
    ``$.classes[i].terms[j]`` path of a diagnostic is built only when it is raised.
    """

    def fail(path: str, msg: str):
        raise ValueError(f"{path}: {msg}")

    if type(data) is not dict:
        fail("$", f"expected object, got {type(data).__name__}")
    for field in ("g", "n", "classes"):
        if field not in data:
            fail("$", f"missing field {field!r}")
    g, n, classes = data["g"], data["n"], data["classes"]
    # type(v) is int, not isinstance: JSON true/false load as bool, a subclass of int
    if not (type(g) is int and g >= 0):
        fail("$.g", f"expected non-negative integer, got {g!r}")
    if not (type(n) is int and n >= 1):
        fail("$.n", f"expected positive integer, got {n!r}")
    if type(classes) is not list:
        fail("$.classes", f"expected list, got {type(classes).__name__}")
    out: Dict[int, ClassDict] = {}
    rationals: Dict[str, Fraction] = {}
    for i, cls in enumerate(classes):
        path = f"$.classes[{i}]"
        if type(cls) is not dict:
            fail(path, f"expected object, got {type(cls).__name__}")
        if "odd_count" not in cls or "terms" not in cls:
            fail(path, "missing field 'odd_count' or 'terms'")
        k = cls["odd_count"]
        if not (type(k) is int and 0 <= k <= n):
            fail(f"{path}.odd_count", f"expected integer in [0, {n}], got {k!r}")
        if k in out:
            fail(f"{path}.odd_count", f"duplicate class {k}")
        terms = cls["terms"]
        if type(terms) is not list:
            fail(f"{path}.terms", f"expected list, got {type(terms).__name__}")
        d: ClassDict = {}
        for j, term in enumerate(terms):
            if type(term) is not dict or "exponents" not in term or "coeff" not in term:
                fail(f"{path}.terms[{j}]", "expected object with 'exponents' and 'coeff'")
            exps, raw = term["exponents"], term["coeff"]
            if type(exps) is not list or len(exps) != n or not all(type(e) is int and e >= 0 for e in exps):
                fail(f"{path}.terms[{j}].exponents", f"expected list of {n} non-negative integers, got {exps!r}")
            if type(raw) is not str:
                fail(f"{path}.terms[{j}].coeff", f"expected rational string like '5/12', got {raw!r}")
            c = rationals.get(raw)  # an orbit repeats its coefficient in every placement: parse it once
            if c is None:
                try:
                    c = rationals[raw] = Fraction(raw)
                except (ValueError, ZeroDivisionError):
                    fail(f"{path}.terms[{j}].coeff", f"not a rational number: {raw!r}")
            key = tuple(exps)
            if key in d:
                fail(f"{path}.terms[{j}].exponents", f"duplicate exponent key {key}")
            d[key] = c
        try:
            out[k] = _collapse((k, key, c) for key, c in d.items() if c).get(k, {})
        except ValueError as exc:
            fail(path, str(exc))
    return QuasiPolynomial(g, n, out)


def qp_from_json(text: str) -> QuasiPolynomial:
    return qp_parse(json.loads(text))


# -- basis-coordinate tensors -------------------------------------------------------


def qp_to_xi_tensor(qp: QuasiPolynomial) -> XiTensor:
    """Coefficients in the per-slot basis indexed by (parity, exponent), in orbit form.

    Each slot of the correlator gets a parity bit and an exponent of b².  A key
    is the root's pair followed by the spectators' sorted ascending, as in
    :func:`nbar.tr.tr_tensor`, so an orbit has one key per distinct pair.
    """
    return {
        (root,) + rest: c
        for k, d in qp.orbits.items()
        for orbit, c in d.items()
        for root, rest in _removals(tuple(sorted([(1, e) for e in orbit[:k]] + [(0, e) for e in orbit[k:]])))
    }


def qp_from_xi_tensor(g: int, n: int, tensor: XiTensor) -> QuasiPolynomial:
    """Inverse of :func:`qp_to_xi_tensor`; certifies slot-permutation symmetry (:func:`_collapse`).

    With its spectators sorted a key is fixed by its root, so each orbit must be hit once per distinct root.
    """

    def entries():
        for key, c in tensor.items():
            if len(key) != n:
                raise ValueError(f"tensor key {key} has wrong arity for n={n}")
            if list(key[1:]) != sorted(key[1:]):
                raise ValueError(f"tensor key {key} has unsorted spectators")
            if c:
                odd = tuple(e for p, e in key if p == 1)
                yield len(odd), odd + tuple(e for p, e in key if p == 0), c

    return QuasiPolynomial(g, n, _collapse(entries(), lambda k, orbit: len(set(orbit[:k])) + len(set(orbit[k:]))))


# -- exact fitting --------------------------------------------------------------------

Table = List[List[int]]  # row i: a node, an exponent or a slot; column a: ω_a or the a-th power
BlockSum = Callable[[ExpKey, ExpKey], int]  # (block, index) ↦ a sum over the block's arrangements

# the per-axis tables of each parity, grown on demand (:func:`_omega_tables`), and one memo of
# block sums per table kind (0 node values, 1 coefficients, 2 powers) and parity, shared by every fit
_TABLES: Dict[int, Tuple[Table, Table, Table]] = register("quasipoly.tables", {})
_SUMS: Dict[Tuple[int, int], Dict[Tuple[ExpKey, ExpKey], int]] = {
    (kind, parity): register(f"quasipoly.{name}_sums.{('even', 'odd')[parity]}", {})
    for kind, name in enumerate(("node", "coeff", "power"))
    for parity in (0, 1)
}


def qp_fit(
    func: Callable[[Tuple[int, ...]], Fraction],
    g: int,
    n: int,
    degree: Optional[int] = None,
) -> QuasiPolynomial:
    """Fit the parity classes of a symmetric quasi-polynomial from exact values.

    ``func`` is called on block-sorted points of strictly positive integers,
    the odd arguments first, and returns an int or a ``Fraction``.  ``degree``
    bounds the *total* degree in the b_i² and defaults to 3g - 3 + n.  The
    unknowns of class k are the block-symmetric monomials m_λ(odd b²) ·
    m_μ(even b²) with λ of at most k parts, μ of at most n - k parts and
    |λ| + |μ| ≤ degree, one per orbit.  Each unknown (λ, μ) has its own
    point: odd entries 2λ_i + 1 and even entries 2μ_j + 2, zero-padded and
    sorted within each block (:func:`_point`).

    All arithmetic is on integers: the values of a class are brought to
    numerators over one denominator.  The class is solved in the Newton basis
    of its nodes, where the system is lower triangular: forward substitution
    over the keys by total degree, each step an integer sum per denominator
    closed by one lcm and one gcd.  The Newton coefficients over one
    denominator then go to the orbit monomials by integer dot products
    (:func:`_contraction`).  The class is checked exactly at the nodes of the
    keys of degree + 2, which contain the solve points: each check is the
    monomials at that node dotted with the integer numerators, compared with
    ``func``'s value across both denominators, and any discrepancy raises
    :class:`EngineError`.  A returned class therefore equals ``func`` on its
    class whenever ``func`` is a block-symmetric polynomial of total degree at
    most degree + 2 there.
    """
    D = degree if degree is not None else 3 * g - 3 + n
    if D < 0:
        raise ValueError(f"degree bound {D} is negative")

    size = D + 2  # the certificate's nodes reach index D + 2
    odd_at, even_at = _block_sums(0, 1, size), _block_sums(0, 0, size)
    odd_coeff, even_coeff = _block_sums(1, 1, size), _block_sums(1, 0, size)
    odd_pw, even_pw = _block_sums(2, 1, size), _block_sums(2, 0, size)
    classes: Dict[int, ClassDict] = {}
    for k in range(n + 1):
        keys = _block_basis(k, n - k, D)
        checks = sorted(_block_basis(k, n - k, D + 2), key=lambda p: (sum(p), p))
        values = {p: func(_point(p, k)) for p in checks}
        vnum, vden = _integral(values)
        # vden times the Newton coefficients, as reduced pairs.  N_q vanishes at the node of p unless
        # q ≤ p entrywise, so in degree order only earlier q enter, and none of an odd block λ ≰ λ_p
        solved: Dict[ExpKey, List[Tuple[ExpKey, int, int]]] = {}  # λ ↦ (μ, num, den) of each non-zero (λ, μ)
        for p in sorted(keys, key=sum):
            lam_p, mu_p = p[:k], p[k:]
            acc = {1: vnum[p]}
            for lam, row in solved.items():
                s = odd_at(lam, lam_p)
                if s:
                    for mu, num, den in row:
                        v = even_at(mu, mu_p)
                        if v:
                            acc[den] = acc.get(den, 0) - s * num * v
            num, den = _close(acc, odd_at(lam_p, lam_p) * even_at(mu_p, mu_p))
            if num:
                solved.setdefault(lam_p, []).append((mu_p, num, den))
        # over one denominator the change of basis is integer dot products, reduced by one gcd
        newton, common = _lcm_sum(({lam + mu: num}, den) for lam, row in solved.items() for mu, num, den in row)
        to_monomial = _contraction(k, newton, odd_coeff, even_coeff)
        nums, den = _reduced({key: to_monomial(key) for key in keys}, common * vden)
        monomial = _contraction(k, nums, odd_pw, even_pw)
        for p in checks:
            got = monomial(p)
            if got * vden != vnum[p] * den:
                raise EngineError(
                    f"fit for class {k} fails verification at b={_point(p, k)}: "
                    f"fitted {Fraction(got, den)}, actual {values[p]}"
                )
        classes[k] = {key: Fraction(num, den) for key, num in nums.items()}
    return QuasiPolynomial(g, n, classes)


def _point(key: ExpKey, k: int) -> Tuple[int, ...]:
    """The node of an orbit key (λ, μ): 2λ_i + 1 on the k odd slots and 2μ_j + 2 on the even ones.

    The nodes of the keys of total degree ≤ D are the orbit representatives
    of the lower set {(a, c) ∈ ℕ^k × ℕ^m : |a| + |c| ≤ D} on the per-axis
    nodes (2i + 1)² and (2j + 2)² in the b² (:func:`_omega_tables`).  That set
    is unisolvent for total degree D (Dyn–Floater, *Multivariate polynomial
    interpolation on lower sets*, 2014) and invariant under S_k × S_m, so a
    block-symmetric polynomial of degree ≤ D is fixed by its values at these
    nodes: in the Newton basis of :func:`_contraction` the system is triangular.
    """
    return tuple(2 * e + 1 for e in key[:k]) + tuple(2 * e + 2 for e in key[k:])


def _powers(ts: Sequence[int], top: int) -> Table:
    """The powers of each t in ``ts``: row i holds t_i^e in column e ≤ ``top``."""
    return [list(accumulate([t] * top, mul, initial=1)) for t in ts]


def _omega_tables(parity: int, size: int) -> Tuple[Table, Table, Table]:
    """ω_a(t) = ∏_{j<a} (t − t_j) on the per-axis nodes t_j = (2j + 2 − parity)² of b².

    Returns three square integer tables, of at least ``size`` + 1 rows and
    columns, column a for ω_a or the a-th power: the node values ω_a(t_j) in
    row j, the coefficients [t^e] ω_a in row e (ω_{a+1} = (t − t_a) ω_a is
    monic and vanishes at t_0, …, t_a), and the powers t_j^a in row j.  No
    entry depends on the size, so the tables are kept per parity and rebuilt
    larger only when a fit asks for more.
    """
    tables = _TABLES.get(parity)
    if tables is None or len(tables[0]) <= size:
        nodes = [(2 * j + 2 - parity) ** 2 for j in range(size + 1)]
        at = [list(accumulate([s - t for t in nodes[:size]], mul, initial=1)) for s in nodes]
        omegas = [[1] + [0] * size]  # the coefficients of ω_a, by ascending power
        for t in nodes[:size]:
            omegas.append([u - t * w for u, w in zip([0] + omegas[-1], omegas[-1])])
        tables = _TABLES[parity] = (at, [list(row) for row in zip(*omegas)], _powers(nodes, size))
    return tables


def _block_sums(kind: int, parity: int, size: int) -> BlockSum:
    """:func:`_removal_sums` on table ``kind`` of :func:`_omega_tables` for ``parity``, with its shared memo."""
    return _removal_sums(_omega_tables(parity, size)[kind], _SUMS[kind, parity])


def _removal_sums(table: Table, memo: Dict[Tuple[ExpKey, ExpKey], int]) -> BlockSum:
    """(block, index) ↦ Σ over the distinct arrangements α of the ascending ``block`` of ∏_i table[index_i][α_i].

    The last slot takes each distinct entry e of the block once, so the sum
    is Σ_e table[index[-1]][e] times the same sum for block ∖ e on index[:-1]
    (:func:`_removals`); ``memo`` keeps one entry per (block, index) met.
    """

    def block_sum(block: ExpKey, index: ExpKey) -> int:
        if not block:
            return 1
        s = memo.get((block, index))
        if s is None:
            row, head = table[index[-1]], index[:-1]
            s = memo[block, index] = sum(row[e] * block_sum(rest, head) for e, rest in _removals(block) if row[e])
        return s

    return block_sum


def _contraction(k: int, coeffs: Dict[ExpKey, int], odd: BlockSum, even: BlockSum) -> Callable[[ExpKey], int]:
    """p ↦ Σ_q coeffs[q] · odd(λ_q, λ_p) · even(μ_q, μ_p), summed through the blocks.

    For an orbit key q = (λ, μ) the product of the two block sums is a sum
    over the distinct arrangements α of λ and β of μ.  On the tables of
    :func:`_omega_tables`, with the row indices p, it is the Newton basis
    function N_q = Σ ∏_i ω_{α_i}(x_i) · ∏_j ω_{β_j}(y_j) at the node of p,
    the coefficient of m_p in N_q, or the monomial m_λ(x) · m_μ(y) at the
    node of p.  On the powers of a point's own squares (:func:`_powers`),
    p = (0, …, k − 1) + (0, …, n − k − 1) gives the monomial at that point,
    and :meth:`QuasiPolynomial.evaluate` sums its Fraction coefficients so.

    The keys are grouped by their odd block λ.  One inner sum Σ_μ
    coeffs[(λ, μ)] · even(μ, μ_p) is taken per (λ, μ_p) and shared by every p
    with that even block; p then gets Σ_λ odd(λ, λ_p) times it.  The integers
    are those of the sum over the keys, regrouped.
    """
    groups: Dict[ExpKey, List[Tuple[ExpKey, int]]] = {}
    for q, c in coeffs.items():
        if c:
            groups.setdefault(q[:k], []).append((q[k:], c))
    inner: Dict[Tuple[ExpKey, ExpKey], int] = {}

    def at(p: ExpKey) -> int:
        lam_p, mu_p = p[:k], p[k:]
        total = 0
        for lam, row in groups.items():
            s = odd(lam, lam_p)
            if s:
                i = inner.get((lam, mu_p))
                if i is None:
                    i = inner[lam, mu_p] = sum(c * even(mu, mu_p) for mu, c in row)
                total += s * i
        return total

    return at


def _blocks(length: int, size: int, low: int = 0) -> List[ExpKey]:
    """Ascending tuples of ``length`` integers, each at least ``low``, with sum ≤ ``size``."""
    if not length:
        return [()]
    return [(e,) + rest for e in range(low, size // length + 1) for rest in _blocks(length - 1, size - e, e)]


def _block_basis(k: int, m: int, D: int) -> List[ExpKey]:
    """Orbit keys (λ, μ) of k odd and m even slots with |λ| + |μ| ≤ D."""
    return [lam + mu for lam in _blocks(k, D) for mu in _blocks(m, D - sum(lam))]
