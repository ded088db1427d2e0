"""The consistency checks, written once for ``nbar verify``, ``nbar table`` and the tests.

The two engines must agree; the residue engine must reproduce the desk
closed forms for (1,1) and (0,3) and satisfy the string, dilaton and
residue-at-origin identities; the recursion must reproduce the Euler
characteristics and the reference table.  Each check yields
:class:`Outcome` records: the line the CLI prints, whether it passed, and
for a table row the coefficients that differ.  The tests assert on the
same records.

The helpers below test identities between the residue engine's tensors and
rational functions exactly, over an exact echelon basis
(:func:`multilinear_is_zero`), never by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from . import golden
from .exact import LaurentSeries, Poly, RationalFunction, mercator, poly_lcm
from .lattice import euler_char, nbar_eval, nbar_eval_asym, nbar_poly
from .quasipoly import XiKey, XiTensor
from .tr import HALF, EngineError, tr_correlator, tr_tensor, xi


@dataclass(frozen=True)
class Outcome:
    """One checked statement: the text printed for it, whether it holds, and any differing coefficients."""

    line: str
    ok: bool
    diffs: Tuple = ()


def _check(label: str, ok: bool) -> Outcome:
    return Outcome(f"{label}: {'ok' if ok else 'FAIL'}", ok)


# the anchors: the (1,1) correlator in closed form, and the factors f_∓ = (z² ∓ z + 1)/(z (z ∓ 1)²)
# of the printed (0,3) product ½ f₋(z₁) f₋(z₂) f₋(z₃) + ½ f₊(z₁) f₊(z₂) f₊(z₃)
ONE_HANDLE = RationalFunction(
    Poly([5, 0, -8, 0, 18, 0, -8, 0, 5]),
    Poly([0, 12]) * Poly([-1, 0, 1]) ** 4,
)
THREE_POINT_FACTORS = tuple(
    RationalFunction(Poly([1, s, 1]), Poly([0, 1]) * Poly([s, 1]) ** 2) for s in (-1, 1)
)


SMALL_CASES = [(0, 3), (1, 1), (0, 4), (1, 2)]  # string, dilaton and engine sweeps
ASYMMETRIC_POINTS = [(0, 4, (4, 2, 0, 2)), (1, 2, (3, 5)), (1, 2, (6, 2))]


def stable_cases(max_chi: int) -> List[Tuple[int, int]]:
    """Every (g, n) with n ≥ 1 and 1 ≤ 2g - 2 + n ≤ max_chi, by χ and then by g."""
    return [(g, chi + 2 - 2 * g) for chi in range(1, max_chi + 1) for g in range((chi + 1) // 2 + 1)]


# -- the verify topics ----------------------------------------------------------------


def euler(max_chi: int) -> Iterator[Outcome]:
    """Euler characteristics against the count polynomials at the origin.

    A case :func:`euler_char` cannot reach is reported as unavailable and is
    not ok: a case that was not checked has not passed.
    """
    for g, n in stable_cases(max_chi):
        try:
            chi = euler_char(g, n)
        except ValueError as exc:
            yield Outcome(f"euler ({g},{n}): unavailable ({exc})", False)
            continue
        zero = nbar_poly(g, n).evaluate((0,) * n)
        status = "ok" if chi == zero else f"FAIL (count polynomial gives {zero})"
        yield Outcome(f"euler ({g},{n}): {chi} {status}", chi == zero)


def desk() -> Iterator[Outcome]:
    """The residue engine against the closed forms for (1,1) and (0,3)."""
    yield _check("desk (1,1)", correlator_rf_1pt(1) == ONE_HANDLE)
    terms = [(c, [xi(*kk) for kk in key]) for key, c in tr_tensor(0, 3).items()]
    terms += [(-HALF, [f] * 3) for f in THREE_POINT_FACTORS]
    yield _check("desk (0,3)", multilinear_is_zero(terms))


def string() -> Iterator[Outcome]:
    for g, n in SMALL_CASES:
        yield _check(f"string ({g},{n})", string_check(g, n))


def dilaton() -> Iterator[Outcome]:
    for g, n in SMALL_CASES:
        yield _check(f"dilaton ({g},{n})", dilaton_check(g, n))


def engines() -> Iterator[Outcome]:
    """Residue engine against the recursion, and the two recursions at asymmetric points."""
    for g, n in SMALL_CASES:
        yield _check(f"engines ({g},{n}) residue vs recursion", tr_correlator(g, n) == nbar_poly(g, n))
    for g, n, bs in ASYMMETRIC_POINTS:
        yield _check(f"engines ({g},{n}) asymmetric at b={bs}", nbar_eval_asym(g, n, bs) == nbar_eval(g, n, bs))


def residues() -> Iterator[Outcome]:
    for k in range(6):
        for parity in (0, 1):
            yield _check(f"residues parity={parity} k={k}", resatzero_check(parity, k))


# -- the reference table -----------------------------------------------------------------


def table() -> Iterator[Outcome]:
    """Computed polynomials against the reference table, one outcome per row.

    A flagged row's differences are reported, with the row still ok.
    """
    for g, n in golden.EXACT_CASES:
        qp = nbar_poly(g, n)
        want = golden.golden_rows(g, n)
        extra = sorted(set(qp.classes) - set(want))
        if extra:
            yield Outcome(f"({g},{n}): FAIL unexpected parity classes {extra}", False)
        for k in sorted(want):
            diffs = golden.diff_class(qp.classes.get(k, {}), want[k])
            if diffs:
                head = f"({g},{n}) k={k}: FAIL {len(diffs)} coefficient(s) differ"
                yield Outcome(_with_diffs(head, diffs, "reference"), False, tuple(diffs))
            else:
                yield Outcome(f"({g},{n}) k={k}: ok ({len(want[k])} coefficients)", True)
    for g, n in golden.SUSPECT_CASES:
        qp = nbar_poly(g, n)
        for k, want_class in sorted(golden.golden_rows(g, n).items()):
            diffs = golden.diff_class(qp.classes.get(k, {}), want_class)
            tag = "suspect row" if (g, n, k) in golden.SUSPECT else "row"
            if diffs:
                head = f"({g},{n}) k={k}: {tag} differs in {len(diffs)} coefficient(s) (report only)"
                yield Outcome(_with_diffs(head, diffs, "published"), True, tuple(diffs))
            else:
                yield Outcome(f"({g},{n}) k={k}: {tag} matches", True)


def _with_diffs(head: str, diffs, source: str) -> str:
    return "\n".join([head] + [f"    {key}: computed {a}, {source} {b}" for key, a, b in diffs])


# -- correlator and form helpers ---------------------------------------------------------


def correlator_rf_1pt(g: int) -> RationalFunction:
    """One-variable correlators assembled back into a single rational function."""
    return sum((c * xi(*key[0]) for key, c in tr_tensor(g, 1).items()), RationalFunction(0))


def is_form_antiinvariant(f: RationalFunction) -> bool:
    """Whether f(z) dz + f(1/z) d(1/z) = 0, i.e. f(z) = f(1/z)/z²."""
    z2 = RationalFunction(Poly([0, 0, 1]))
    return f == f.substitute_inverse() / z2


def poles_confined(f: RationalFunction) -> bool:
    """Poles only at -1, 0, +1, the one at 0 at most simple."""
    den = f.den
    v = den.valuation()
    if v is None:
        return True
    if v > 1:
        return False
    rem = Poly(den.coeffs[v:])
    for root in (1, -1):
        while True:
            q, r = divmod(rem, Poly([-root, 1]))
            if r.is_zero:
                rem = q
            else:
                break
    return rem.degree == 0


# -- residue identities ------------------------------------------------------------------------


def string_scalar(parity: int, k: int) -> Fraction:
    """Σ_α Res_{z=α} z ξ_{parity,k}(z) dz over the branch points α = ±1."""
    f = RationalFunction.var() * xi(parity, k)
    return sum((f.laurent_at(alpha, -1).coeff(-1) for alpha in (1, -1)), Fraction(0))


def _branch_series(parity: int, k: int) -> Iterator[Tuple[int, LaurentSeries]]:
    """The Laurent series of ξ_{parity,k} at each branch point α = ±1.

    A residue there would pair with the branch value of log z, so it must
    vanish, and is asserted to.
    """
    for alpha in (1, -1):
        ser = xi(parity, k).laurent_at(alpha, -1)
        if ser.coeff(-1):
            raise EngineError(f"basis function ({parity},{k}) has residue at {alpha}")
        yield alpha, ser


def _log_tail_residue(alpha: int, ser: LaurentSeries) -> Fraction:
    """Residue at u = 0 of (log z - log α) times the series ``ser`` at z = α + u."""
    return sum((mercator(alpha, k) * ser.coeff(-1 - k) for k in range(1, -ser.ord)), Fraction(0))


def dilaton_scalar(parity: int, k: int) -> Fraction:
    """Σ_α Res_{z=α} (z²/2 - log z) ξ_{parity,k}(z) dz.

    The log residue splits into the formal branch value times Res ξ, which
    vanishes, plus an explicit Mercator-tail part.
    """
    total = Fraction(0)
    for alpha, ser in _branch_series(parity, k):
        sq = LaurentSeries(0, [Fraction(alpha * alpha, 2), Fraction(alpha), HALF], None)
        total += (sq * ser).coeff(-1) - _log_tail_residue(alpha, ser)
    return total


def resatzero_check(parity: int, k: int) -> bool:
    """Branch-point residues of ξ log z against the residue at the origin."""
    lhs = sum((_log_tail_residue(*branch) for branch in _branch_series(parity, k)), Fraction(0))
    return lhs == xi(parity, k).series_at_zero(-1).coeff(-1)


def string_transform(f: RationalFunction) -> RationalFunction:
    """Slot transform (f · z²/(z² - 1))' appearing in the string identity."""
    w = RationalFunction(Poly([0, 0, 1]), Poly([-1, 0, 1]))
    return (f * w).derivative()


def string_check(g: int, n: int) -> bool:
    """Form-level string identity tying the (g, n+1) correlator to (g, n).

    Contracts the extra slot of the larger correlator with Σ_α Res z ξ and
    compares, as a multilinear exact zero test, against the per-slot
    transform of the smaller correlator.
    """
    lhs = _contract(tr_tensor(g, n + 1), string_scalar)
    terms = [(c, [xi(*kk) for kk in rest]) for rest, c in lhs.items()]
    for key, c in tr_tensor(g, n).items():
        for slot in range(n):
            funcs = [xi(*kk) for kk in key]
            funcs[slot] = string_transform(funcs[slot])
            terms.append((c, funcs))
    return multilinear_is_zero(terms)


def dilaton_check(g: int, n: int) -> bool:
    """Form-level dilaton identity: contracting with Σ_α Res (z²/2 - log z) ξ
    recovers 2g - 2 + n times the smaller correlator."""
    want = {k: (2 * g - 2 + n) * v for k, v in tr_tensor(g, n).items()}
    return _contract(tr_tensor(g, n + 1), dilaton_scalar) == want


def _contract(tensor: XiTensor, scalar: Callable[[int, int], Fraction]) -> Dict[Tuple[XiKey, ...], Fraction]:
    """The tensor with its first slot contracted against ``scalar`` of each basis index."""
    out: Dict[Tuple[XiKey, ...], Fraction] = {}
    for key, c in tensor.items():
        s = scalar(*key[0])
        if s:
            out[key[1:]] = out.get(key[1:], Fraction(0)) + c * s
    return {rest: c for rest, c in out.items() if c}


# -- multilinear exact zero testing --------------------------------------------------------------


def multilinear_is_zero(
    terms: Sequence[Tuple[Fraction, Sequence[RationalFunction]]],
) -> bool:
    """Whether Σ c_t ∏_s f_{t,s}(z_s) vanishes identically.

    Each slot's functions are reduced to coordinates over an exact echelon
    basis; the resulting coefficient tensor must vanish entirely.  No
    sampling is involved.
    """
    terms = [t for t in terms if t[0]]
    if not terms:
        return True
    nslots = len(terms[0][1])
    coords_per_slot: List[List[Dict[int, Fraction]]] = []
    for s in range(nslots):
        funcs = [list(t[1])[s] for t in terms]
        coords_per_slot.append(_echelon_coords(funcs))
    acc: Dict[Tuple[int, ...], Fraction] = {}
    for t, (c, _) in enumerate(terms):
        partial: Dict[Tuple[int, ...], Fraction] = {(): c}
        for s in range(nslots):
            co = coords_per_slot[s][t]
            nxt: Dict[Tuple[int, ...], Fraction] = {}
            for prof, w in partial.items():
                for bi, x in co.items():
                    key = prof + (bi,)
                    nxt[key] = nxt.get(key, Fraction(0)) + w * x
            partial = nxt
        for prof, w in partial.items():
            acc[prof] = acc.get(prof, Fraction(0)) + w
    return not any(acc.values())


def _echelon_coords(funcs: Sequence[RationalFunction]) -> List[Dict[int, Fraction]]:
    """Coordinates of each function over an incrementally built echelon basis."""
    den = Poly([1])
    for f in funcs:
        den = poly_lcm(den, f.den)
    vecs = []
    width = 0
    for f in funcs:
        p = f.num * den.exact_div(f.den)
        vecs.append(list(p.coeffs))
        width = max(width, len(p.coeffs))
    basis: List[Tuple[int, List[Fraction]]] = []
    out: List[Dict[int, Fraction]] = []
    for vec in vecs:
        v = [Fraction(c) for c in vec] + [Fraction(0)] * (width - len(vec))
        co: Dict[int, Fraction] = {}
        for bi, (piv, bv) in enumerate(basis):
            if v[piv]:
                fct = v[piv]
                v = [a - fct * bb for a, bb in zip(v, bv)]
                co[bi] = co.get(bi, Fraction(0)) + fct
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is not None:
            lead = v[piv]
            bv = [a / lead for a in v]
            basis.append((piv, bv))
            co[len(basis) - 1] = lead
        out.append(co)
    return out
