"""The consistency checks, written once for ``nbar verify``, ``nbar table`` and the tests.

The two engines must agree; the residue engine must reproduce the desk
closed forms for (1,1) and (0,3) and satisfy the string, dilaton and
residue-at-origin identities; the recursion must reproduce the Euler
characteristics and the reference table.  Each check yields
:class:`Outcome` records: the line the CLI prints, whether it passed, and
for a table row the coefficients that differ.  The tests assert on the
same records.

Every identity is an equality of tensors in the residue engine's own ξ
coordinates, tested exactly, never by sampling.  The reference functions
live here, not in the engine: :func:`xi`, the basis as rational functions,
and :func:`principal_parts`.  A rational function enters the identities
through one bridge, :func:`_xi_coords`: its certified principal parts at
-1, 0 and +1, then their certified ξ decomposition.  Each residue is read
off the principal parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from types import MappingProxyType
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

from . import golden
from .exact import HALF, Poly, RationalFunction, _integral, mercator
from .lattice import euler_char, nbar_eval, nbar_eval_asym, nbar_poly, positivity_report, psi_scale
from .memo import register
from .quasipoly import EngineError, XiIndex, XiTensor, _arrangements
from .tr import PfKey, PfVector, tr_tensor, xi_decompose


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


def stable_cases(max_chi: int) -> List[Tuple[int, int]]:
    """Every (g, n) with n ≥ 1 and 1 ≤ 2g - 2 + n ≤ max_chi, by χ and then by g."""
    return [(g, chi + 2 - 2 * g) for chi in range(1, max_chi + 1) for g in range((chi + 1) // 2 + 1)]


SMALL_CASES = stable_cases(2)  # string and dilaton sweeps
# each first entry is smaller than another entry, so the point's memo value, rooted at its
# largest entry, and the step rooted at b_1 take different roots
ASYMMETRIC_POINTS = [(0, 4, (2, 4, 0, 2)), (1, 2, (3, 5)), (1, 2, (2, 6))]


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
        zero = nbar_poly(g, n).coefficient(0, (0,) * n)
        status = "ok" if chi == zero else f"FAIL (count polynomial gives {zero})"
        yield Outcome(f"euler ({g},{n}): {chi} {status}", chi == zero)


def desk() -> Iterator[Outcome]:
    """The residue engine against the closed forms for (1,1) and (0,3)."""
    yield _check("desk (1,1)", _expanded(1, 1) == {(i,): c for i, c in _xi_coords(ONE_HANDLE).items()})
    want: XiTensor = {}
    for f in THREE_POINT_FACTORS:
        gamma = _xi_coords(f).items()
        for (i, a), (j, b), (k, c) in product(gamma, repeat=3):
            want[i, j, k] = want.get((i, j, k), Fraction(0)) + HALF * a * b * c
    yield _check("desk (0,3)", _expanded(0, 3) == {key: c for key, c in want.items() if c})


def string() -> Iterator[Outcome]:
    for g, n in SMALL_CASES:
        yield _check(f"string ({g},{n})", string_check(g, n))


def dilaton() -> Iterator[Outcome]:
    for g, n in SMALL_CASES:
        yield _check(f"dilaton ({g},{n})", dilaton_check(g, n))


def engines(max_chi: int) -> Iterator[Outcome]:
    """Residue engine against the recursion through max_chi, and the recursion at two roots of each asymmetric point."""
    for g, n in stable_cases(max_chi):
        yield _check(f"engines ({g},{n}) residue vs recursion", nbar_poly(g, n, "tr") == nbar_poly(g, n))
    for g, n, bs in ASYMMETRIC_POINTS:
        yield _check(f"engines ({g},{n}) asymmetric at b={bs}", nbar_eval_asym(g, n, bs) == nbar_eval(g, n, bs))


def top_coefficients(max_chi: int, engine: str) -> Iterator[Outcome]:
    """Every top-degree orbit of ``engine``'s polynomials through max_chi against the DVV recursion.

    In each parity class, the orbit of exponents a with Σ a_i = 3g - 3 + n
    times :func:`nbar.lattice.psi_scale` must equal
    :func:`witten_kontsevich`, which shares no code with either engine.  One
    outcome per (g, n); a case with no top-degree orbit has not passed.
    """
    for g, n in stable_cases(max_chi):
        diffs = []
        orbits = 0
        for k, orbit in sorted(nbar_poly(g, n, engine).orbits.items()):
            for key, c in sorted(orbit.items()):
                if sum(key) == 3 * g - 3 + n:
                    orbits += 1
                    got, want = c * psi_scale(g, key), witten_kontsevich(g, key)
                    if got != want:
                        diffs.append(((k, key), got, want))
        label = f"top ({g},{n}) {engine}"
        if diffs:
            head = f"{label}: FAIL {len(diffs)} of {orbits} top-degree orbits differ"
            yield Outcome(_with_diffs(head, diffs, "Witten-Kontsevich"), False, tuple(diffs))
        elif orbits:
            yield Outcome(f"{label}: {orbits} top-degree orbits ok", True)
        else:
            yield Outcome(f"{label}: FAIL no top-degree orbit", False)


def residues() -> Iterator[Outcome]:
    for k in range(6):
        for parity in (0, 1):
            yield _check(f"residues parity={parity} k={k}", resatzero_check(parity, k))


# -- the reference table -----------------------------------------------------------------


def table() -> Iterator[Outcome]:
    """Computed polynomials against the reference table, one outcome per row.

    A flagged row's differences are reported, with the row still ok; so is
    the last outcome, a note on the sign of every stored coefficient.
    """
    for g, n in golden.EXACT_CASES:
        classes = nbar_poly(g, n).classes
        want = golden.golden_rows(g, n)
        extra = sorted(set(classes) - set(want))
        if extra:
            yield Outcome(f"({g},{n}): FAIL unexpected parity classes {extra}", False)
        for k in sorted(want):
            diffs = golden.diff_class(classes.get(k, {}), want[k])
            if diffs:
                head = f"({g},{n}) k={k}: FAIL {len(diffs)} coefficient(s) differ"
                yield Outcome(_with_diffs(head, diffs, "reference"), False, tuple(diffs))
            else:
                yield Outcome(f"({g},{n}) k={k}: ok ({len(want[k])} coefficients)", True)
    for g, n in golden.SUSPECT_CASES:
        classes = nbar_poly(g, n).classes
        for k, want_class in sorted(golden.golden_rows(g, n).items()):
            diffs = golden.diff_class(classes.get(k, {}), want_class)
            tag = "suspect row" if (g, n, k) in golden.SUSPECT else "row"
            if diffs:
                head = f"({g},{n}) k={k}: {tag} differs in {len(diffs)} coefficient(s) (report only)"
                yield Outcome(_with_diffs(head, diffs, "published"), True, tuple(diffs))
            else:
                yield Outcome(f"({g},{n}) k={k}: {tag} matches", True)
    report = positivity_report()
    note = [f"note: {len(report)} negative stored coefficient(s) found:"]
    note += [f"    ({g},{n}) k={k} {key}: {c}" for g, n, k, key, c in report]
    yield Outcome("\n".join(note) if report else "all stored coefficients non-negative over the table range", True)


def _with_diffs(head: str, diffs, source: str) -> str:
    return "\n".join([head] + [f"    {key}: computed {a}, {source} {b}" for key, a, b in diffs])


# -- correlator and form helpers ---------------------------------------------------------


def _expanded(g: int, n: int) -> XiTensor:
    """The (g, n) correlator with every ordering of each key's spectators: one key per slot order."""
    return {key[:1] + rest: c for key, c in tr_tensor(g, n).items() for rest in _arrangements(key[1:])}


@lru_cache(maxsize=None)
def xi(parity: int, k: int) -> RationalFunction:
    """Basis function with series Σ [b] b^{2k} z^{b-1} over b ≡ parity (mod 2).

    Obtained from the parity components of z/(1 - z²) by applying the
    operator z d/dz twice per power of b² and one plain derivative for the
    weight [b]; the even k = 0 member picks up an extra 1/z from the b = 0
    term.  All members have poles confined to {-1, 0, +1}, the pole at 0
    being simple and only present for (parity, k) = (0, 0).
    """
    if parity not in (0, 1) or k < 0:
        raise ValueError(f"invalid basis index ({parity}, {k})")
    z = RationalFunction.var()
    f = (z * z if parity == 0 else z) / RationalFunction(Poly([1, 0, -1]))
    for _ in range(2 * k):
        f = z * f.derivative()
    f = f.derivative()
    if parity == 0 and k == 0:
        f = f + RationalFunction(Poly([1]), Poly([0, 1]))
    return f


register("checks.xi", xi)


def principal_parts(f: RationalFunction) -> PfVector:
    """The principal parts of f at -1, 0 and +1, certified by one cross-multiplication.

    With D = ∏ (z - α)^{top_α}, top_α the pole order of f at α, the parts sum
    to N/D.  Raises :class:`EngineError` unless f.num · D == N · f.den, that
    is, unless f is proper with no poles elsewhere.  On those functions the
    map is linear and one-to-one, so it is an exact coordinate system.
    """
    v: PfVector = {}
    num, den = Poly(), Poly([1])
    for a in (1, -1, 0):
        ser = f.laurent_at(a, -1)
        top = max(0, -ser.ord)
        lin = Poly([-a, 1])
        part = Poly()
        for j in range(1, top + 1):
            c = ser.coeff(-j)
            if c:
                v[(a, j)] = Fraction(c)
                part = part + lin ** (top - j) * c
        num, den = num * lin ** top + part * den, den * lin ** top
    if f.num * den != num * f.den:
        raise EngineError(f"{f} is not the sum of its principal parts at -1, 0, +1")
    return v


def _xi_coords(f: RationalFunction) -> Dict[XiIndex, Fraction]:
    """The ξ coordinates of f, certified twice; a function outside the ξ span raises :class:`EngineError`.

    The principal parts go to :func:`xi_decompose` as integer numerators over
    their lcm; this is where its γ numerators become Fractions.
    """
    nums, den = _integral(principal_parts(f))
    gammas, gamma_den = xi_decompose(nums)
    return {xik: Fraction(c, den * gamma_den) for xik, c in gammas.items()}


def is_form_antiinvariant(f: RationalFunction) -> bool:
    """Whether f(z) dz + f(1/z) d(1/z) = 0, i.e. f(z) = f(1/z)/z²."""
    z2 = RationalFunction(Poly([0, 0, 1]))
    return f == f.substitute_inverse() / z2


def poles_confined(f: RationalFunction) -> bool:
    """Whether f is proper with poles only at -1, 0, +1, the one at 0 at most simple."""
    try:
        v = principal_parts(f)
    except EngineError:
        return False
    return not any(j > 1 for a, j in v if a == 0)


# -- residue identities ------------------------------------------------------------------------


def _branch_residue(v: Mapping[PfKey, Fraction], p: Poly, log: int = 0) -> Fraction:
    """Σ_α Res_{z=α} (p(z) + log · (log z - log α)) f(z) dz over α = ±1, for f with principal parts v.

    Res_{z=α} h · (z - α)^{-j} is the u^{j-1} Taylor coefficient of h at
    z = α + u, so only the principal parts of f at α are read; log z - log α
    is the Mercator tail.  The branch value log α would pair with Res_α f,
    which must vanish, and is asserted to.
    """
    total = Fraction(0)
    for (a, j), c in v.items():
        if not a:
            continue
        if j == 1:
            raise EngineError(f"residue {c} at the branch point {a}")
        taylor = p.shifted(a).coeffs
        total += c * ((taylor[j - 1] if j <= len(taylor) else 0) + log * mercator(a, j - 1))
    return total


@lru_cache(maxsize=None)
def _xi_parts(parity: int, k: int) -> Mapping[PfKey, Fraction]:
    """Principal parts of ξ_{parity,k} from its Laurent expansions, read-only as every caller shares them.

    Not the engine's own coordinates (``tr.xi_principal_parts``), so that the
    residue identities stay independent of the engine.
    """
    return MappingProxyType(principal_parts(xi(parity, k)))


register("checks.xi_parts", _xi_parts)


def string_scalar(parity: int, k: int) -> Fraction:
    """Σ_α Res_{z=α} z ξ_{parity,k}(z) dz over the branch points α = ±1."""
    return _branch_residue(_xi_parts(parity, k), Poly([0, 1]))


def dilaton_scalar(parity: int, k: int) -> Fraction:
    """Σ_α Res_{z=α} (z²/2 - log z) ξ_{parity,k}(z) dz over the branch points α = ±1."""
    return _branch_residue(_xi_parts(parity, k), Poly([0, 0, HALF]), -1)


def resatzero_check(parity: int, k: int) -> bool:
    """Branch-point residues of ξ log z against the residue at the origin."""
    v = _xi_parts(parity, k)
    return _branch_residue(v, Poly(), 1) == v.get((0, 1), 0)


def string_transform(f: RationalFunction) -> RationalFunction:
    """Slot transform (f · z²/(z² - 1))' appearing in the string identity."""
    w = RationalFunction(Poly([0, 0, 1]), Poly([-1, 0, 1]))
    return (f * w).derivative()


def string_check(g: int, n: int) -> bool:
    """Form-level string identity tying the (g, n+1) correlator to (g, n).

    Contracts the extra slot of the larger correlator with Σ_α Res z ξ and
    adds the per-slot transform of the smaller correlator, in ξ coordinates:
    the sum must be empty.
    """
    total = _contract(_expanded(g, n + 1), string_scalar)
    small = _expanded(g, n)
    moved = {kk: _xi_coords(string_transform(xi(*kk))) for kk in {kk for key in small for kk in key}}
    for key, c in small.items():
        for slot in range(n):
            for kk, x in moved[key[slot]].items():
                full = key[:slot] + (kk,) + key[slot + 1:]
                total[full] = total.get(full, Fraction(0)) + c * x
    return not any(total.values())


def dilaton_check(g: int, n: int) -> bool:
    """Form-level dilaton identity: contracting with Σ_α Res (z²/2 - log z) ξ
    recovers 2g - 2 + n times the smaller correlator."""
    want = {k: (2 * g - 2 + n) * v for k, v in _expanded(g, n).items()}
    return _contract(_expanded(g, n + 1), dilaton_scalar) == want


def _contract(tensor: XiTensor, scalar: Callable[[int, int], Fraction]) -> XiTensor:
    """The tensor with its first slot contracted against ``scalar`` of each basis index."""
    scalars = {kk: scalar(*kk) for kk in {key[0] for key in tensor}}
    out: XiTensor = {}
    for key, c in tensor.items():
        s = scalars[key[0]]
        if s:
            out[key[1:]] = out.get(key[1:], Fraction(0)) + c * s
    return {rest: c for rest, c in out.items() if c}


# -- Witten–Kontsevich intersection numbers ---------------------------------------------------

_WK: Dict[Tuple[int, Tuple[int, ...]], Fraction] = register("checks.witten_kontsevich", {})


def _double_factorial(k: int) -> int:
    """k!! for odd k ≥ -1, with (-1)!! = 1."""
    return prod(range(k, 0, -2))


def witten_kontsevich(g: int, a: Sequence[int]) -> Fraction:
    """⟨τ_{a_1} ⋯ τ_{a_n}⟩_g by the DVV (Virasoro) recursion, independent of both engines.

    With d the largest a_i and the others R (Dijkgraaf–Verlinde–Verlinde 1991),
    (2d+1)!! ⟨τ_d τ_R⟩_g = Σ_j (2d+2r_j-1)!!/(2r_j-1)!! ⟨τ_R, r_j → r_j+d-1⟩_g
    + ½ Σ_{r+s=d-2} (2r+1)!! (2s+1)!! (⟨τ_r τ_s τ_R⟩_{g-1}
    + Σ_{g_1+g_2=g, I⊔J=R} ⟨τ_r τ_I⟩_{g_1} ⟨τ_s τ_J⟩_{g_2}),
    from ⟨τ_0³⟩_0 = 1 and ⟨τ_1⟩_1 = 1/24.  A number off degree 3g - 3 + n is 0.
    """
    n = len(a)
    if g < 0 or n == 0 or min(a) < 0 or sum(a) != 3 * g - 3 + n:
        return Fraction(0)
    key = (g, tuple(sorted(a, reverse=True)))
    hit = _WK.get(key)
    if hit is not None:
        return hit
    if key == (0, (0, 0, 0)):
        return Fraction(1)
    if key == (1, (1,)):
        return Fraction(1, 24)
    d, rest = key[1][0], key[1][1:]
    total = Fraction(0)
    for j, r in enumerate(rest):
        moved = rest[:j] + (r + d - 1,) + rest[j + 1:]
        weight = Fraction(_double_factorial(2 * d + 2 * r - 1), _double_factorial(2 * r - 1))
        total += weight * witten_kontsevich(g, moved)
    for r in range(d - 1):
        s = d - 2 - r
        inner = witten_kontsevich(g - 1, (r, s) + rest)
        for g1 in range(g + 1):
            for mask in range(1 << len(rest)):
                part_i = tuple(x for t, x in enumerate(rest) if mask >> t & 1)
                part_j = tuple(x for t, x in enumerate(rest) if not mask >> t & 1)
                left = witten_kontsevich(g1, (r,) + part_i)
                if left:
                    inner += left * witten_kontsevich(g - g1, (s,) + part_j)
        total += HALF * _double_factorial(2 * r + 1) * _double_factorial(2 * s + 1) * inner
    hit = _WK[key] = total / _double_factorial(2 * d + 1)
    return hit
