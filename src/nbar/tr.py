"""Residue recursion on the spectral curve x = z + 1/z, y = z.

The correlators of this recursion are finite combinations of a fixed family
of basis functions ξ_{parity,k} in each variable.  Every such function, and
every coefficient function the recursion meets on the way, is proper with
poles only at -1, 0 and +1, so it is fixed by its principal parts: the
coefficients of (z - α)^{-j} for α ∈ {-1, 0, +1}.  The engine works in these
coordinates only.  Each factor of a term is a principal-part vector (ξ is
built in coordinates by its defining operators; the kernel's rational part
and the diagonal two-point factor are constants), and its Laurent series at
a branch point z = ±1 is read off that vector as integer numerators over one
denominator.  One dense series is kept per factor and branch point, regrown
to exactly the highest order asked of it, and so is the product ξ_a·R with
the kernel's rational part, which every pair table C[a, ·] and the
two-point table P[a] share.  The residues against the kernel are then plain
integer arithmetic.  At each branch point a table is one product: the
singular part of the series of its factors that watch no spectator, the
kernel's R included, times the u^k coefficients of its live factors, which
are tensors over the live spectators' keys.  So C[a, b] is ξ_a·R·ξ_b times
the constant -1 of ξ_b's slot, P[a] is ξ_a·R times Δ^α_k (below), ω_{1,1}
is R·diag times 1, and ω_{0,3} is R times o2p ⊗ o2i + o2i ⊗ o2p, the
product of the two-point slots, whose coefficients have closed forms.  A
table brings the residue data of its two branch points to one lcm,
decomposes integer slices and reduces its numerators by one gcd when it is
finished.  P[a] meets the two slots of ω_{0,2} only through their
difference Δ^α_k = [u^k](ω_{0,2}(1/z, w) - ω_{0,2}(z, w)) at z = α + u,
which lies in the ξ span in w although neither slot does for k ≥ 1.  Each
Δ^α_k is decomposed once, so P[a]'s w slot is an integer combination of
certified ξ coordinates and only its root slot is back-substituted.  A ξ
factor in a slot substituted by z ↦ 1/z is just a sign, as the basis forms
are anti-invariant: ξ(1/z) d(1/z) = -ξ(z) dz.

Each residue term lies in the ξ span by itself, so it is computed once, as a
table of structure constants in ξ coordinates, and reused for every (g, n);
a correlator is a contraction of smaller ones with these tables.  The
certificates sit in the tables: the formal log z terms at each branch point
must cancel, and the back-substitution into the ξ basis must leave an
exactly empty residual in every slot (Σ γ·PP(ξ) = v).  Anything else raises
:class:`EngineError`.  The contraction is symmetric in the spectators by
construction and keeps one coefficient per root and sorted spectators; the
symmetry between the root and a spectator is not built in, and
:func:`qp_from_xi_tensor` checks it.  So a returned tensor is correct, not plausible.
The certificates are the same in integers: the log tally at each branch
point is exactly empty (for P[a] in the ξ coordinates of the Δ combination,
which is zero exactly when its principal parts are, as the decomposition is
one-to-one), and the residual is emptied exactly.

The contraction is integer too.  Tables and correlators are integer
numerators over one denominator, each block of the contraction sums integers
over the product of its tensors' and its table's denominators, and a
correlator is brought to one denominator, with one lcm and one gcd, when it
is complete.  :func:`xi_decompose` takes and returns integer numerators
too, and so is the basis: ξ's principal parts are integers over 2 and the
constant factors' over 4.  Fractions are built only where a result leaves the
module, in :func:`tr_tensor`; the one exception is the 2 × 2 solve of
:func:`_pivot`, through :func:`nbar.exact.linsolve`.

The module builds no rational function.  The reference functions, ξ as a
:class:`~nbar.exact.RationalFunction` and the principal parts of any such
function, live in :mod:`nbar.checks`, which takes them into ξ coordinates
with :func:`xi_decompose` and compares every identity with this engine's
tensors in those coordinates.

The two-point input of the recursion is the modified form
dz₁ dz₂ / (z₁ - z₂)² + dz₁ dz₂ / (z₁ z₂); substitutions z ↦ 1/z always act
on forms, i.e. they carry a Jacobian -1/z² per substituted slot.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul
from typing import Callable, Dict, Iterable, List, Tuple

from .exact import Scalar, _integral, _lcm_sum, _over_lcm, _reduced, linsolve
from .memo import register
from .quasipoly import (EngineError, QuasiPolynomial, XiIndex, XiKey, XiTensor, _check_stable, _removals, is_stable,
                        qp_from_xi_tensor)

PfKey = Tuple[int, int]  # (α, j): the coefficient of (z - α)^{-j}, α ∈ {-1, 0, +1}
PfVector = Dict[PfKey, Scalar]


# -- the basis -------------------------------------------------------------------


def _d_dz(v: PfVector) -> PfVector:
    return {(a, j + 1): -j * c for (a, j), c in v.items()}


def _z_d_dz(v: PfVector) -> PfVector:
    """z d/dz in coordinates, from z (z - α)^{-j-1} = (z - α)^{-j} + α (z - α)^{-j-1}."""
    out: PfVector = {}
    for (a, j), c in v.items():
        out[(a, j)] = out.get((a, j), 0) - j * c
        if a:
            out[(a, j + 1)] = out.get((a, j + 1), 0) - j * a * c
    return out


@lru_cache(maxsize=None)
def xi_principal_parts(parity: int, k: int) -> Tuple[Tuple[Tuple[PfKey, int], ...], int]:
    """Principal parts of ξ_{parity,k}, built by the operators of :func:`nbar.checks.xi` in coordinates.

    Returns ``(parts, 2)``: sorted integer numerators over 2.  The seeds
    z²/(1 - z²) = -1 - ½/(z - 1) + ½/(z + 1) and
    z/(1 - z²) = -½/(z - 1) - ½/(z + 1), doubled, lose their constant to the
    first operator, and both operators map a proper function to a proper one
    with integer parts.  So ξ_{p,k} is the plain derivative of (z d/dz)^{2k}
    of the doubled seed, plus the 1/z of the even k = 0 member, over 2.
    """
    if parity not in (0, 1) or k < 0:
        raise ValueError(f"invalid basis index ({parity}, {k})")
    v: PfVector = {(-1, 1): 1 if parity == 0 else -1, (1, 1): -1}
    for _ in range(2 * k):
        v = _z_d_dz(v)
    v = _d_dz(v)
    if parity == 0 and k == 0:
        v[(0, 1)] = 2
    return tuple(sorted((key, c) for key, c in v.items() if c)), 2


register("tr.xi_principal_parts", xi_principal_parts)


def two_point_coeff(kind: str, alpha: int, k: int) -> PfVector:
    """The u^k coefficient of a two-point slot at z = α + u, as integer principal parts in w.

    ``kind`` "o2p" is the plain slot 1/(z - w)² + 1/(zw), whose coefficient
    is (k + 1)(w - α)^{-(k+2)} + (-1)^k α^{k+1}/w.  "o2i" is the slot with its
    z entry replaced by 1/z as a form, -(1/(1 - zw)² + 1/(zw)); with
    1 - αw = -α(w - α) and w^k = Σ_i C(k, i) α^{k-i} (w - α)^i its first term
    has coefficient (k + 1)(-α)^{k+2} Σ_i C(k, i) α^{k-i} (w - α)^{i-k-2}.
    """
    zinv = (-1) ** k * alpha ** (k + 1)
    if kind == "o2p":
        return {(alpha, k + 2): k + 1, (0, 1): zinv}
    lead = -(k + 1) * (-alpha) ** (k + 2)
    out = {(alpha, k + 2 - i): lead * comb(k, i) * alpha ** (k - i) for i in range(k + 1)}
    out[(0, 1)] = -zinv
    return out


# -- factor series ------------------------------------------------------------------

Desc = Tuple
# principal parts, as integer numerators over 4, of the kernel's factor z³/(1 - z²)² and of the
# diagonal factor -(1/(z² - 1)² + 1/z²), the two-point slot on the pair (z, 1/z) as a form in z
KERNEL_PP: Dict[PfKey, int] = {(1, 2): 1, (1, 1): 2, (-1, 2): -1, (-1, 1): 2}
DIAGONAL_PP: Dict[PfKey, int] = {(1, 2): -1, (1, 1): 1, (-1, 2): -1, (-1, 1): -1, (0, 2): -4}


def _factor_pp(desc: Desc) -> Tuple[Iterable[Tuple[PfKey, int]], int]:
    """Principal parts of a factor that watches no spectator: ``(parts, den)``, integer numerators over den."""
    if desc[0] == "xi":
        return xi_principal_parts(desc[1], desc[2])
    return {"R": KERNEL_PP, "diag": DIAGONAL_PP}[desc[0]].items(), 4


def _factor_ord(desc: Desc, alpha: int) -> int:
    return -max(j for (a, j), _ in _factor_pp(desc)[0] if a == alpha)


PfTensor = Dict[Tuple[PfKey, ...], Scalar]  # principal-part coordinates, one key per slot


# one factor, or a product of factors, at z = α + u as (e0, nums, den): the coefficient of u^e is
# nums[e - e0] / den for e0 ≤ e < e0 + len(nums), e0 being the order of the pole at α
Series = Tuple[int, Tuple[int, ...], int]
# the live factors at z = α + u as (coeffs, den): the coefficient of u^k is coeffs[k] / den by live key
Live = Tuple[List[PfTensor], int]

_SERIES: Dict[Tuple[Desc, int], Series] = register("tr.series", {})
_KERNEL_PRODUCTS: Dict[Tuple[XiIndex, int], Series] = register("tr.kernel_products", {})


def _grown(memo: Dict, key, upto: int, build: Callable[[int], Series]) -> Series:
    """The series kept at ``key`` if it reaches u^upto, else ``build(upto)``, kept in its place.

    A series is regrown to exactly the order asked for, with no headroom: its
    denominator grows with its order, and so do the integers of every product
    made with it.  A caller reads only as far as it asked, and takes the
    series as read-only.
    """
    hit = memo.get(key)
    if hit is None or hit[0] + len(hit[1]) <= upto:
        hit = memo[key] = build(upto)
    return hit


def _series(desc: Desc, alpha: int, upto: int) -> Series:
    """A factor that watches no spectator at z = α + u, through at least u^upto, in integers over one denominator.

    The series is expanded from the factor's principal parts: the part at α
    is its singular part, and each pole β ≠ α adds
    (z - β)^{-j} = Σ_m C(-j, m) (α - β)^{-j-m} u^m.  So den is the parts'
    own denominator (:func:`_factor_pp`) times 2^{j + upto} for the highest
    order j at β = -α, and every division by a power of α - β is checked to be
    exact.  One series is kept per (desc, α) (:func:`_grown`).
    """

    def build(upto: int) -> Series:
        pp, den = _factor_pp(desc)
        lo = _factor_ord(desc, alpha)
        far = max((j + upto for (beta, j), _ in pp if beta == -alpha), default=0)  # |α - 0| = 1, |α + α| = 2
        den *= 2 ** far
        nums = [0] * (upto + 1 - lo)
        for (beta, j), num in pp:
            num *= 2 ** far
            if beta == alpha:
                nums[-j - lo] = num
                continue
            for m in range(upto + 1):
                q, r = divmod((-1) ** m * comb(j + m - 1, m) * num, (alpha - beta) ** (j + m))
                if r:
                    raise EngineError(f"the series of {desc} at z = {alpha} is not integral over {den}")
                nums[m - lo] += q
        return lo, tuple(nums), den

    return _grown(_SERIES, (desc, alpha), upto, build)


def _mul(x: Series, y: Series, upto: int) -> Series:
    """x · y through u^upto; x has to reach u^(upto - e0(y)) and y u^(upto - e0(x))."""
    (lo1, nums1, den1), (lo2, nums2, den2) = x, y
    nums = tuple(sum(map(mul, nums1[:i + 1], nums2[i::-1])) for i in range(upto + 1 - lo1 - lo2))
    return lo1 + lo2, nums, den1 * den2


def _kernel_product(a: XiIndex, alpha: int, upto: int) -> Series:
    """ξ_a · R at z = α + u through at least u^upto: one product shared by every C[a, ·] and by P[a]."""
    xi_a, kernel = ("xi",) + a, ("R",)

    def build(upto: int) -> Series:
        return _mul(_series(xi_a, alpha, upto - _factor_ord(kernel, alpha)),
                    _series(kernel, alpha, upto - _factor_ord(xi_a, alpha)), upto)

    return _grown(_KERNEL_PRODUCTS, (a, alpha), upto, build)


def _singular(x: Series, desc: Desc, alpha: int) -> Series:
    """x times the factor ``desc`` at z = α + u, through u^{-1}; x has to reach u^{-1 - e0(desc)}."""
    return _mul(x, _series(desc, alpha, -1 - x[0]), -1)


def _residue_data(first: Series, live: Live, alpha: int) -> Tuple[PfTensor, PfTensor, int]:
    """The residue data at one branch point of ``first`` times ``live``, in integers over one denominator.

    ``first`` is the product of the factors that watch no spectator, the
    kernel's R included, through u^{-1}; ``live`` is the live factors, regular
    at α, through u^{-1 - e0(first)}.  Returns ``(data, tally, den)``.
    ``data`` is the contribution to the root function: its keys are the
    root's principal-part key — (α, j), or (0, 1) for the 1/z term that the
    Mercator tail of log z feeds — followed by the live key.  ``tally`` holds
    the coefficient of the formal log z at α by live key; it must cancel
    (:func:`_table`).  Both are integer numerators over ``den``: the product
    of the two denominators times the lcm of the Mercator terms' 1/k.
    """
    lo, nums, den = first
    coeffs, live_den = live
    logs = lcm(*range(1, -lo))  # the Mercator terms below have 1/k for k < -lo
    data: PfTensor = {}
    tally: PfTensor = {}
    for j in range(1, 1 - lo):
        prod: PfTensor = {}  # the coefficient of u^{-j}
        for k, coeff in enumerate(coeffs[:1 - j - lo]):
            x = nums[-j - k - lo]
            if x:
                for key, c in coeff.items():
                    prod[key] = prod.get(key, 0) + x * c
        # logs times (-1)^j α^(j-1) / (j - 1), the u^(j-1) coefficient of log z - log α
        m = (-1) ** j * alpha ** (j - 1) * (logs // (j - 1)) if j > 1 else 0
        for key, c in prod.items():
            data[((alpha, j),) + key] = -logs * c
            if m:
                zkey = ((0, 1),) + key
                data[zkey] = data.get(zkey, 0) - m * c
            if j == 1 and c:
                tally[key] = -logs * c
    return data, tally, den * live_den * logs


# -- decomposition over the basis -------------------------------------------------------

Pivot = Tuple[Dict[Tuple[int, int], int], int, Tuple[Tuple[Tuple[PfKey, int], ...], ...], int]


@lru_cache(maxsize=None)
def _pivot(k: int) -> Pivot:
    """The back-substitution step at k in integers: ``(inverse, inv_den, parts, pp_den)``.

    ``inverse`` / inv_den is the inverse of the principal parts of ξ_{0,k},
    ξ_{1,k} on the rows (+1, 2k + 2), (-1, 2k + 2), and ``parts`` / pp_den
    are those principal parts.  ξ_{p,k} has poles of order exactly 2k + 2 at
    both branch points, so this square is invertible and the basis matrix is
    block-triangular in k.  Row p of the inverse, ``inverse[p, 0]`` and
    ``inverse[p, 1]``, maps a vector's entries on those rows to γ_{p,k}.
    """
    (parts0, pp_den), (parts1, _) = xi_principal_parts(0, k), xi_principal_parts(1, k)
    parts = (parts0, parts1)
    square = [[dict(pp)[(a, 2 * k + 2)] for pp in parts] for a in (1, -1)]
    # the square holds numerators over pp_den, so pp_den times the unit vectors solves for its inverse
    columns = [linsolve(square, unit) for unit in ((pp_den, 0), (0, pp_den))]
    inverse, inv_den = _integral({(p, i): column[p] for i, column in enumerate(columns) for p in (0, 1)})
    return inverse, inv_den, parts, pp_den


register("tr.pivots", _pivot)


def xi_decompose(v: Dict[PfKey, int]) -> Tuple[Dict[XiIndex, int], int]:
    """Write a vector of integer principal parts exactly as Σ γ_{p,k} PP(ξ_{p,k}): ``(γ numerators, den)``.

    The highest pole order at ±1 fixes the top index.  From there down,
    γ_{0,k} and γ_{1,k} are read off the rows (±1, 2k + 2) of the running
    residual through :func:`_pivot`, and γ·PP(ξ) is subtracted from it.  The
    residual must end exactly empty, which certifies Σ γ·PP(ξ) = v in every
    coordinate; a vector outside the span raises :class:`EngineError`.

    The residual and the γ found so far are integer numerators over one
    running denominator, which each k multiplies by the denominators of its
    pivot and of PP(ξ_{·,k}) (:func:`_pivot`); the γ are returned over it,
    reduced by one gcd.  :func:`nbar.checks._xi_coords` takes a rational
    function through :func:`nbar.checks.principal_parts` and this into Fractions.
    """
    res = {key: c for key, c in v.items() if c}
    gammas: Dict[XiIndex, int] = {}
    den = 1
    top = max((j for a, j in res if a), default=0)
    for k in reversed(range(top // 2)):
        rows = (res.get((1, 2 * k + 2), 0), res.get((-1, 2 * k + 2), 0))
        if not any(rows):
            continue
        inverse, inv_den, parts, pp_den = _pivot(k)
        scale = inv_den * pp_den
        res = {key: c * scale for key, c in res.items()}
        gammas = {key: c * scale for key, c in gammas.items()}
        for p, part in enumerate(parts):
            gamma = inverse[p, 0] * rows[0] + inverse[p, 1] * rows[1]
            if gamma:
                gammas[(p, k)] = gamma * pp_den
                for pk, x in part:
                    res[pk] = res.get(pk, 0) - gamma * x
        den *= scale
    left = sorted(key for key, c in res.items() if c)
    if left:
        raise EngineError(f"principal parts {sorted(v)} are not in the span of ξ; {left} are left")
    return _reduced(gammas, den)


def _decompose_slot(coeffs: PfTensor, s: int) -> Tuple[Dict[Tuple, int], int]:
    """Slot s of an integer tensor taken into ξ coordinates: ``(numerators, den)``, den the slices' lcm.

    Each slice along the slot is one certified :func:`xi_decompose`.
    """
    slices: Dict[Tuple, Dict[PfKey, int]] = {}
    for key, c in coeffs.items():
        if c:
            slices.setdefault(key[:s] + key[s + 1:], {})[key[s]] = c
    done, common = _over_lcm({rest: xi_decompose(vec) for rest, vec in slices.items()})
    return {rest[:s] + (xik,) + rest[s:]: c for rest, gammas in done.items() for xik, c in gammas.items()}, common


# -- the tables --------------------------------------------------------------------------

# ξ coordinates (the root's index, then each live spectator's) as integer numerators over one denominator
Table = Tuple[Dict[XiKey, int], int]

# keyed by the signed factor orders whose residues a table sums
_TABLES: Dict[Tuple, Table] = register("tr.tables", {})
# the live factor of a table that has none: 1, or -1 for the sign of ξ_b's slot in C[a, b]
ONE: Live = ([{(): 1}], 1)
MINUS_ONE: Live = ([{(): -1}], 1)


def _table(orders: Tuple, part: Callable[[int], Tuple[PfTensor, PfTensor, int]], slots: int = 1) -> Table:
    """Σ_α of the residue data ``part(α)`` at α = +1, -1, certified in ξ coordinates and kept under ``orders``.

    A table is memoized across all (g, n): ``part`` is called only when
    ``orders`` has no table yet.  The log tally at each branch point must be
    empty, and each of the first ``slots`` slots, those in principal-part
    coordinates, must decompose exactly (:func:`_decompose_slot`), spectators
    first and the root last; otherwise :class:`EngineError` is raised.
    """
    hit = _TABLES.get(orders)
    if hit is not None:
        return hit
    parts = [part(alpha) for alpha in (1, -1)]
    for alpha, (_, tally, _) in zip((1, -1), parts):
        if tally:
            raise EngineError(f"residual log coefficient at z = {alpha} in the table of {orders}")
    nums, den = _lcm_sum((data, d) for data, _, d in parts)
    for s in reversed(range(slots)):
        nums, common = _decompose_slot(nums, s)
        den *= common
    table = _TABLES[orders] = _reduced(nums, den)
    return table


def _pair(a: XiIndex, b: XiIndex) -> Table:
    """C[a, b] = -Σ_α Res K ξ_a(z) ξ_b(z): two correlators met in z and 1/z, the sign from ξ_b's slot.

    Its residues are those of ξ_a·R (:func:`_kernel_product`) times ξ_b, for a ≤ b.
    """
    xi_a, xi_b = ("xi",) + min(a, b), ("xi",) + max(a, b)

    def part(alpha: int) -> Tuple[PfTensor, PfTensor, int]:
        first = _kernel_product(xi_a[1:], alpha, -1 - _factor_ord(xi_b, alpha))
        return _residue_data(_singular(first, xi_b, alpha), MINUS_ONE, alpha)

    return _table(((-1, (xi_a, xi_b)),), part)


@lru_cache(maxsize=None)
def _two_point_diff(alpha: int, k: int) -> Tuple[Dict[XiIndex, int], int]:
    """Δ^α_k = [u^k](ω_{0,2}(1/z, w) - ω_{0,2}(z, w)) at z = α + u, in ξ coordinates in w.

    The difference of the two slots of :func:`two_point_coeff`, decomposed
    once and certified by its empty residual.  Each slot alone is outside
    the ξ span for k ≥ 1; their difference is what P[a] meets.
    """
    v = two_point_coeff("o2i", alpha, k)
    for key, c in two_point_coeff("o2p", alpha, k).items():
        v[key] = v.get(key, 0) - c
    return xi_decompose(v)


register("tr.two_point_diffs", _two_point_diff)


def _two_point(a: XiIndex) -> Table:
    """P[a]: ξ_a(z) with ω_{0,2}(1/z, w) minus ω_{0,2}(z, w) with ξ_a(1/z); slots (root, w).

    Both orders are ξ_a·R times a two-point slot, so their residues are
    those of ξ_a·R (:func:`_kernel_product`) times Δ^α_k
    (:func:`_two_point_diff`): integer combinations of certified ξ
    coordinates in w, over one denominator.  So only the root slot is
    decomposed.  The log tally is checked on the ξ coordinates too: the
    decomposition is one-to-one, so zero in ξ coordinates is zero in
    principal parts.  The table is kept under its two orders.
    """
    xi_a = ("xi",) + a

    def part(alpha: int) -> Tuple[PfTensor, PfTensor, int]:
        first = _kernel_product(a, alpha, -1)
        deltas, den = _over_lcm({k: _two_point_diff(alpha, k) for k in range(-first[0])})
        live = [{(w,): c for w, c in deltas[k].items()} for k in range(-first[0])]
        return _residue_data(first, (live, den), alpha)

    return _table(((1, (xi_a, ("o2i",))), (-1, (("o2p",), xi_a))), part)


def _three_point(alpha: int, reach: int) -> Live:
    """ω_{0,2}(z, w₁) ω_{0,2}(1/z, w₂) + ω_{0,2}(1/z, w₁) ω_{0,2}(z, w₂) at z = α + u, below u^reach.

    The coefficients of the two slots (:func:`two_point_coeff`) multiplied
    as tensors over the live keys (w₁, w₂), in integers.
    """
    slots = {kind: [two_point_coeff(kind, alpha, k) for k in range(reach)] for kind in ("o2p", "o2i")}
    coeffs: List[PfTensor] = [{} for _ in range(reach)]
    for kind1, kind2 in (("o2p", "o2i"), ("o2i", "o2p")):
        for i, x in enumerate(slots[kind1]):
            for j, y in enumerate(slots[kind2][:reach - i]):
                t = coeffs[i + j]
                for p1, c1 in x.items():
                    for p2, c2 in y.items():
                        t[p1, p2] = t.get((p1, p2), 0) + c1 * c2
    return coeffs, 1


# -- the engine -------------------------------------------------------------------------

_TENSORS: Dict[Tuple[int, int], Table] = register("tr.tensors", {})


def tr_tensor(g: int, n: int) -> XiTensor:
    """The (g, n) correlator in basis coordinates, one key per orbit, as Fractions.

    A key is the root's ξ index followed by the spectators' indices sorted
    ascending.  The recursion runs on :func:`_tensor`, the same tensor as
    integers over one denominator, so rebinding this function, as a tracer
    does, wraps only the outer call.
    """
    nums, den = _tensor(g, n)
    return {key: Fraction(c, den) for key, c in nums.items()}


def _tensor(g: int, n: int) -> Table:
    """The (g, n) correlator as integer numerators over one denominator (memoized module-wide).

    (1,1) and (0,3) are tables; any other correlator is a contraction (:func:`_contract`).
    """
    _check_stable(g, n)
    hit = _TENSORS.get((g, n))
    if hit is None:
        if (g, n) == (1, 1):
            diag = ("diag",)

            def part(alpha: int) -> Tuple[PfTensor, PfTensor, int]:
                first = _series(("R",), alpha, -1 - _factor_ord(diag, alpha))
                return _residue_data(_singular(first, diag, alpha), ONE, alpha)

            hit = _table(((1, (diag,)),), part)
        elif (g, n) == (0, 3):

            def part(alpha: int) -> Tuple[PfTensor, PfTensor, int]:
                first = _series(("R",), alpha, -1)
                return _residue_data(first, _three_point(alpha, -first[0]), alpha)

            nums, den = _table(((1, (("o2p",), ("o2i",))), (1, (("o2i",), ("o2p",)))), part, 3)
            hit = _reduced({key: c for key, c in nums.items() if key[1] <= key[2]}, den)
        else:
            hit = _contract(g, n)
        _TENSORS[g, n] = hit
    return hit


Weights = Dict[Tuple[XiIndex, XiIndex, Tuple[XiIndex, ...]], int]  # (a ≤ b, sorted spectators) → weight of C[a, b]


def _genus_weights(nums: Dict[XiKey, int]) -> Weights:
    """C met by ω_{g-1,n+1}: each entry with each distinct spectator b in C's second slot."""
    weights: Weights = {}
    for key, c in nums.items():
        a = key[0]
        for b, rest in _removals(key[1:]):
            ab = (a, b, rest) if a <= b else (b, a, rest)
            weights[ab] = weights.get(ab, 0) + c
    return weights


def _by_spectators(nums: Dict[XiKey, int]) -> Dict[Tuple[XiIndex, ...], List[Tuple[XiIndex, int]]]:
    """The entries of a tensor grouped by their sorted spectators, as (root, numerator) pairs."""
    out: Dict[Tuple[XiIndex, ...], List[Tuple[XiIndex, int]]] = {}
    for key, c in nums.items():
        out.setdefault(key[1:], []).append((key[0], c))
    return out


def _split_weights(nums1: Dict[XiKey, int], nums2: Dict[XiKey, int], copies: int) -> Weights:
    """C met by ω_{g1} ω_{g2}, S₁ ⊎ S₂ shared out in ∏_κ C(m_{S₁⊎S₂}(κ), m_{S₁}(κ)) ways, times ``copies``.

    The entries are grouped by their spectators, so each pair (S₁, S₂) is
    counted and sorted once for all of its roots.
    """
    counted2 = [(s2, Counter(s2), roots2) for s2, roots2 in _by_spectators(nums2).items()]
    weights: Weights = {}
    for s1, roots1 in _by_spectators(nums1).items():
        counts1 = Counter(s1).items()
        for s2, counts2, roots2 in counted2:
            ways = copies
            for x, k in counts1:
                if x in counts2:
                    ways *= comb(k + counts2[x], k)
            rest = tuple(sorted(s1 + s2))
            for a, c1 in roots1:
                c1 *= ways
                for b, c2 in roots2:
                    ab = (a, b, rest) if a <= b else (b, a, rest)
                    weights[ab] = weights.get(ab, 0) + c1 * c2
    return weights


def _cut(weights: Weights, den: int) -> Table:
    """Each weight / den times C[a, b], on its spectators, over den times the tables' lcm."""
    tables, table_den = _over_lcm({ab: _pair(*ab) for ab in {(a, b) for a, b, _ in weights}})
    out: Dict[XiKey, int] = {}
    for (a, b, rest), w in weights.items():
        if w:
            for root, x in tables[a, b].items():
                key = root + rest
                out[key] = out.get(key, 0) + w * x
    return out, den * table_den


def _join(nums: Dict[XiKey, int], den: int) -> Table:
    """P[a] met by each entry (a, S) / den of ω_{g,n-1}, its live slot w sorted into S, once per spectator equal to w."""
    tables, table_den = _over_lcm({a: _two_point(a) for a in {key[0] for key in nums}})
    out: Dict[XiKey, int] = {}
    for key, c in nums.items():
        rest = key[1:]
        for (root, w), x in tables[key[0]].items():
            lo, hi = bisect_left(rest, w), bisect_right(rest, w)
            full = (root,) + rest[:hi] + (w,) + rest[hi:]
            out[full] = out.get(full, 0) + (hi - lo + 1) * c * x
    return out, den * table_den


def _contract(g: int, n: int) -> Table:
    """ω_{g,n}: C contracted with ω_{g-1,n+1} and with each ω_{g1} ω_{g2}, and P with ω_{g,n-1}.

    Each term is weighted by the spectator orderings it stands for.  It is
    all integer arithmetic, in blocks: the genus cut, each split (g1, m) and
    the join.  A cut block first sums one weight per ({a, b}, sorted
    spectators), as C[a, b] = C[b, a], and a split and its twin
    (g - g1, n - 1 - m) give the same weights, so only one of the two runs,
    counted twice.  A block brings its tables to their lcm and returns integer
    numerators over its tensors' denominator times that lcm.  The blocks are
    brought to their lcm and reduced by one gcd.
    """
    blocks: List[Table] = []
    if g >= 1:
        nums, den = _tensor(g - 1, n + 1)
        blocks.append(_cut(_genus_weights(nums), den))
    for g1 in range(g + 1):
        for m in range(n):
            twin = (g - g1, n - 1 - m)
            if (g1, m) <= twin and is_stable(g1, m + 1) and is_stable(g - g1, n - m):
                (nums1, den1), (nums2, den2) = _tensor(g1, m + 1), _tensor(g - g1, n - m)
                blocks.append(_cut(_split_weights(nums1, nums2, 1 if (g1, m) == twin else 2), den1 * den2))
    if n > 1:
        blocks.append(_join(*_tensor(g, n - 1)))
    return _reduced(*_lcm_sum(blocks))


def tr_correlator(g: int, n: int) -> QuasiPolynomial:
    """The count polynomial read off the residue recursion."""
    return qp_from_xi_tensor(g, n, tr_tensor(g, n))
