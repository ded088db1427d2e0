"""Exact univariate polynomial and rational-function arithmetic.

Everything in this module is exact.  Coefficients are ``int``/
``fractions.Fraction`` values, and every division goes through
:class:`~fractions.Fraction`, so there is no floating point anywhere.

:meth:`RationalFunction.laurent_at` expands a function around a point as a
truncated Laurent series with precision tracking (:class:`LaurentSeries`);
:func:`nbar.checks.principal_parts` reads its exact coordinates off those
expansions.  The module also provides the Mercator coefficients of log z at
z = ±1 (:func:`mercator`) and a small exact linear solver, which now serves
only the residue engine's 2 × 2 pivots (:func:`nbar.tr._pivot`); the fit
solves by forward substitution instead (:func:`nbar.quasipoly.qp_fit`).

Both engines, the fit and the checks keep exact values one way: integer
numerators over one denominator.  Rationals are brought to the lcm of their
denominators (:func:`_integral`, :func:`_scaled`), sums of such tables are
taken over the lcm of theirs (:func:`_over_lcm`, :func:`_lcm_sum`), and a
finished table or sum is reduced by one gcd (:func:`_reduced`,
:func:`_close`).  The helpers for that rule live here, once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

HALF = Fraction(1, 2)


class Poly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored low degree first and trailing zeroes are
    trimmed, so the zero polynomial has an empty coefficient list.  ``int``
    and ``Fraction`` coefficients mix freely.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def valuation(self) -> Optional[int]:
        """Index of the lowest non-zero coefficient (None for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out: List[Scalar] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> "Poly":
        return self.scale(other)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Poly([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, c: Scalar) -> "Poly":
        return Poly([c * a for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        qsize = len(rem) - len(other.coeffs) + 1
        q: List[Scalar] = [0] * max(qsize, 0)
        dinv = Fraction(1, other.coeffs[-1])
        while len(rem) >= len(other.coeffs) and rem:
            f = rem[-1] * dinv
            shift = len(rem) - len(other.coeffs)
            q[shift] = f
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - f * c
            rem.pop()
            while rem and not rem[-1]:
                rem.pop()
        return Poly(q), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        """Division that must leave no remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(Fraction(1, self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (Euclid's algorithm)."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, divmod(a, b)[1]
        return a.monic()

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, alpha: Scalar) -> "Poly":
        """Taylor shift: the polynomial q with q(u) = p(alpha + u)."""
        out: List[Scalar] = []
        cs = list(self.coeffs)
        while cs:
            q: List[Scalar] = []
            acc: Scalar = 0
            for c in reversed(cs):
                acc = acc * alpha + c
                q.append(acc)
            out.append(q.pop())
            q.reverse()
            cs = q
        return Poly(out)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{i}")
        return " + ".join(parts)


class RationalFunction:
    """Quotient of two polynomials in canonical form.

    Canonical form means numerator and denominator are coprime and the
    denominator is monic, so equality is literal equality of the parts.
    The zero function is ``0/1``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Union[Poly, Scalar] = 0, den: Union[Poly, Scalar] = 1):
        if not isinstance(num, Poly):
            num = Poly([num])
        if not isinstance(den, Poly):
            den = Poly([den])
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num = Poly()
            self.den = Poly([1])
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        inv = Fraction(1, den.coeffs[-1])
        self.num = num.scale(inv)
        self.den = den.scale(inv)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def var() -> "RationalFunction":
        """The identity function z."""
        return RationalFunction(Poly([0, 1]))

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        other_rf = _coerce(other)
        if other_rf is None:
            return NotImplemented
        return self.num == other_rf.num and self.den == other_rf.den

    # -- field operations -------------------------------------------------------

    def __add__(self, other: object) -> "RationalFunction":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other: object) -> "RationalFunction":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "RationalFunction":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "RationalFunction":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RationalFunction":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: object) -> "RationalFunction":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(o.num * self.den, o.den * self.num)

    def __pow__(self, e: int) -> "RationalFunction":
        if e < 0:
            return RationalFunction(self.den ** (-e), self.num ** (-e))
        return RationalFunction(self.num ** e, self.den ** e)

    # -- analysis ------------------------------------------------------------

    def __call__(self, x: Scalar) -> Scalar:
        d = self.den(x)
        if not d:
            raise ZeroDivisionError("evaluation at a pole")
        return Fraction(self.num(x), d)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def substitute_inverse(self) -> "RationalFunction":
        """The function z ↦ f(1/z), again as a rational function of z."""
        if self.is_zero:
            return RationalFunction(0)
        m = max(self.num.degree, self.den.degree)

        def rev(p: Poly) -> Poly:
            cs = list(p.coeffs) + [0] * (m + 1 - len(p.coeffs))
            return Poly(list(reversed(cs)))

        return RationalFunction(rev(self.num), rev(self.den))

    def laurent_at(self, alpha: Scalar, upto: int) -> "LaurentSeries":
        """Laurent expansion around z = alpha in the local variable u = z - alpha.

        Returns a series whose coefficients are exact for exponents from the
        leading order through ``upto`` inclusive.  If ``upto`` is below the
        leading order the series carries no coefficients but still reports
        the correct order through its precision bookkeeping.
        """
        if self.is_zero:
            return LaurentSeries(0, [], None)
        nu = self.num.shifted(alpha)
        de = self.den.shifted(alpha)
        a = nu.valuation()
        b = de.valuation()
        assert a is not None and b is not None
        ord_ = a - b
        length = upto - ord_ + 1
        if length <= 0:
            return LaurentSeries(ord_, [], upto + 1)
        ncs = nu.coeffs[a:]
        dcs = de.coeffs[b:]
        inv0 = Fraction(1, dcs[0])
        out: List[Scalar] = []
        for k in range(length):
            s: Scalar = ncs[k] if k < len(ncs) else 0
            for i in range(1, min(k, len(dcs) - 1) + 1):
                s = s - dcs[i] * out[k - i]
            out.append(s * inv0)
        return LaurentSeries(ord_, out, upto + 1)

    def __repr__(self) -> str:
        if self.den == Poly([1]):
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


def _coerce(x: object) -> Optional[RationalFunction]:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction(Poly([x]))
    if isinstance(x, Poly):
        return RationalFunction(x)
    return None


class LaurentSeries:
    """Truncated Laurent series in a local variable with precision tracking.

    ``coeffs[i]`` is the coefficient of ``u**(ord + i)``.  Coefficients are
    known exactly for exponents in ``[ord, prec)``; ``prec is None`` means
    the series is exact and all coefficients beyond the stored list are
    zero.  Asking for a coefficient at or beyond a finite ``prec`` is an
    error — that is how truncation bugs fail loudly instead of silently.
    """

    __slots__ = ("ord", "coeffs", "prec")

    def __init__(self, ord_: int, coeffs: Sequence[Scalar], prec: Optional[int]):
        cs = list(coeffs)
        while cs and not cs[0]:
            cs.pop(0)
            ord_ += 1
        if prec is None:
            while cs and not cs[-1]:
                cs.pop()
            if not cs:
                ord_ = 0
        else:
            if len(cs) != prec - ord_ and not (not cs and prec <= ord_):
                raise ValueError("coefficient list does not match precision window")
        self.ord = ord_
        self.coeffs = cs
        self.prec = prec

    @property
    def is_exactly_zero(self) -> bool:
        return not self.coeffs and self.prec is None

    def coeff(self, e: int) -> Scalar:
        if self.prec is not None and e >= self.prec:
            raise ValueError(f"coefficient of u^{e} requested beyond precision {self.prec}")
        if e < self.ord:
            return 0
        i = e - self.ord
        if i >= len(self.coeffs):
            return 0
        return self.coeffs[i]

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.is_exactly_zero or other.is_exactly_zero:
            return LaurentSeries(0, [], None)
        lo = self.ord + other.ord
        p1, p2 = self.prec, other.prec
        cands = []
        if p1 is not None:
            cands.append(p1 + other.ord)
        if p2 is not None:
            cands.append(p2 + self.ord)
        prec = min(cands) if cands else None
        if prec is None:
            hi = lo + len(self.coeffs) + len(other.coeffs) - 1
        else:
            hi = prec
        out: List[Scalar] = []
        for e in range(lo, hi):
            s: Scalar = 0
            for i in range(self.ord, self.ord + len(self.coeffs)):
                j = e - i
                if j < other.ord or j >= other.ord + len(other.coeffs):
                    continue
                a = self.coeffs[i - self.ord]
                if not a:
                    continue
                s = s + a * other.coeffs[j - other.ord]
            out.append(s)
        return LaurentSeries(lo, out, prec)

    def __repr__(self) -> str:
        terms = [f"({c})u^{self.ord + i}" for i, c in enumerate(self.coeffs) if c]
        tail = "" if self.prec is None else f" + O(u^{self.prec})"
        return " + ".join(terms) + tail if terms else f"0{tail}"


def mercator(alpha: int, k: int) -> Fraction:
    """Coefficient of u^k (k ≥ 1) in log(alpha + u) - log(alpha), for alpha = ±1.

    This is the Mercator tail (-1)^{k+1} u^k / (k alpha^k) of log z at a
    branch point; the branch-dependent constant log(alpha) is left to the
    caller.
    """
    return Fraction((-1) ** (k - 1), k * alpha ** k)


def linsolve(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> List[Scalar]:
    """Solve a square exact linear system by Gaussian elimination.

    Raises ValueError if the matrix is singular.
    """
    n = len(matrix)
    a = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            raise ValueError("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1, a[col][col])
        a[col] = [inv * v for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


# -- integer numerators over one denominator ---------------------------------------------


def _scaled(x: Scalar, den: int) -> int:
    """x · den, for a rational x whose denominator divides den."""
    return x.numerator * (den // x.denominator)


def _integral(values: Mapping[object, Scalar]) -> Tuple[Dict, int]:
    """Rationals as integer numerators over the lcm of their denominators: ``(numerators, lcm)``."""
    den = lcm(*(x.denominator for x in values.values()))
    return {key: _scaled(x, den) for key, x in values.items()}, den


def _over_lcm(tables: Mapping[object, Tuple[Dict, int]]) -> Tuple[Dict[object, Dict], int]:
    """Tables of numerators over a denominator brought to the lcm of theirs: ``(numerators by name, lcm)``."""
    common = lcm(*(den for _, den in tables.values()))
    return {name: {key: c * (common // den) for key, c in nums.items()} for name, (nums, den) in tables.items()}, common


def _lcm_sum(parts: Iterable[Tuple[Dict, int]]) -> Tuple[Dict, int]:
    """Σ nums / den over ``parts``, as integer numerators over the lcm of their denominators."""
    parts = list(parts)
    common = lcm(*(den for _, den in parts))
    total: Dict = {}
    for nums, den in parts:
        scale = common // den
        for key, c in nums.items():
            total[key] = total.get(key, 0) + scale * c
    return total, common


def _reduced(nums: Dict, den: int) -> Tuple[Dict, int]:
    """nums / den without its zero entries, over its least denominator: one gcd divides out."""
    nums = {key: c for key, c in nums.items() if c}
    d = gcd(den, *nums.values())
    return {key: c // d for key, c in nums.items()}, den // d


def _close(acc: Dict[int, int], den: int) -> Tuple[int, int]:
    """Σ_d acc[d] / d, divided by a positive ``den``, as a reduced pair (numerator, denominator).

    ``acc`` maps each denominator to the sum of the numerators over it; the
    few distinct denominators are brought to their lcm and one gcd reduces
    the result.  The fit's forward substitution and the lattice recursion's
    step both close their sums here.
    """
    common = lcm(*acc)
    num, den = sum(c * (common // d) for d, c in acc.items()), den * common
    g = gcd(num, den)
    return num // g, den // g
