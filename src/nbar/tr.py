"""Residue recursion on the spectral curve x = z + 1/z, y = z.

The correlators of this recursion are finite combinations of a fixed family
of basis functions ξ_{parity,k} in each variable.  Every such function, and
every coefficient function the recursion meets on the way, is proper with
poles only at -1, 0 and +1, so it is fixed by its principal parts: the
coefficients of (z - α)^{-j} for α ∈ {-1, 0, +1}.  The engine works in these
coordinates only.  Each factor of a term is a principal-part vector (ξ is
built in coordinates by its defining operators; the kernel's rational part
and the diagonal two-point factor are constants), and its Laurent series at
a branch point z = ±1 is read off that vector.  A factor that depends on a
live spectator has principal-part vectors in that variable as coefficients
(the two-point factors have closed forms).  The residues against the kernel
are then plain arithmetic on exact rational vectors.  A ξ factor in a slot
substituted by z ↦ 1/z is just a sign, as the basis forms are anti-invariant:
ξ(1/z) d(1/z) = -ξ(z) dz.  Finally every slot, the root's and each live
spectator's, is re-expressed in the ξ basis by back-substitution.

Certificates: each decomposition must leave an exactly empty residual, i.e.
reproduce its vector in every coordinate (Σ γ·PP(ξ) = v), and the formal
log z terms at each branch point must cancel in every sum.  Anything else
raises :class:`EngineError`, so a returned tensor is correct, not plausible.
:class:`RationalFunction` is left to the reference functions (:func:`xi`,
the slot functions, :func:`principal_parts`); the checks against them live
in :mod:`nbar.checks`.

The two-point input of the recursion is the modified form
dz₁ dz₂ / (z₁ - z₂)² + dz₁ dz₂ / (z₁ z₂); substitutions z ↦ 1/z always act
on forms, i.e. they carry a Jacobian -1/z² per substituted slot.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, List, Tuple

from .exact import Poly, RationalFunction, linsolve, mercator
from .lattice import is_stable
from .memo import register
from .quasipoly import QuasiPolynomial, XiKey, XiTensor, qp_from_xi_tensor

LIVE = "live"
HALF = Fraction(1, 2)

PfKey = Tuple[int, int]  # (α, j): the coefficient of (z - α)^{-j}, α ∈ {-1, 0, +1}
PfVector = Dict[PfKey, Fraction]


class EngineError(RuntimeError):
    """The recursion left its certified domain; the result would be untrusted."""


# -- the basis -------------------------------------------------------------------


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
    one_minus_z2 = RationalFunction(Poly([1, 0, -1]))
    seed = (z * z if parity == 0 else z) / one_minus_z2
    f = seed
    for _ in range(2 * k):
        f = z * f.derivative()
    f = f.derivative()
    if parity == 0 and k == 0:
        f = f + RationalFunction(Poly([1]), Poly([0, 1]))
    return f


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
def xi_principal_parts(parity: int, k: int) -> Tuple[Tuple[PfKey, Fraction], ...]:
    """Principal parts of ξ_{parity,k}, built by the operators of :func:`xi` in coordinates.

    The seeds z²/(1 - z²) = -1 - ½/(z - 1) + ½/(z + 1) and
    z/(1 - z²) = -½/(z - 1) - ½/(z + 1) lose their constant to the first
    operator, and both operators map a proper function to a proper one.
    """
    if parity not in (0, 1) or k < 0:
        raise ValueError(f"invalid basis index ({parity}, {k})")
    v: PfVector = {(1, 1): -HALF, (-1, 1): HALF if parity == 0 else -HALF}
    for _ in range(2 * k):
        v = _z_d_dz(v)
    v = _d_dz(v)
    if parity == 0 and k == 0:
        v[(0, 1)] = Fraction(1)
    return tuple(sorted((key, c) for key, c in v.items() if c))


register("tr.xi", xi)
register("tr.xi_principal_parts", xi_principal_parts)


def omega02_plain(w: Fraction) -> RationalFunction:
    """Two-point slot function 1/(z - w)² + 1/(z w) at a rational w ≠ 0, as a function of z."""
    return RationalFunction(1, Poly([w * w, -2 * w, 1])) + RationalFunction(1, Poly([0, w]))


def omega02_inverse_first(w: Fraction) -> RationalFunction:
    """The same two-point slot with its z entry replaced by 1/z as a form."""
    return -(RationalFunction(1, Poly([1, -2 * w, w * w])) + RationalFunction(1, Poly([0, w])))


def omega02_diagonal() -> RationalFunction:
    """The two-point slot evaluated on the pair (z, 1/z), as a form in z."""
    main = RationalFunction(Poly([1]), Poly([1, 0, -2, 0, 1]))
    extra = RationalFunction(Poly([1]), Poly([0, 0, 1]))
    return -(main + extra)


def kernel_rational_part() -> RationalFunction:
    """The factor z³/(1 - z²)² of the recursion kernel."""
    return RationalFunction(Poly([0, 0, 0, 1]), Poly([1, 0, -2, 0, 1]))


def two_point_coeff(kind: str, alpha: int, k: int) -> PfVector:
    """The u^k coefficient of a two-point slot at z = α + u, as principal parts in w.

    ``kind`` "o2p" is :func:`omega02_plain`, whose coefficient is
    (k + 1)(w - α)^{-(k+2)} + (-1)^k α^{k+1}/w.  "o2i" is
    :func:`omega02_inverse_first`, -(1/(1 - zw)² + 1/(zw)); with
    1 - αw = -α(w - α) and w^k = Σ_i C(k, i) α^{k-i} (w - α)^i its first term
    has coefficient (k + 1)(-α)^{k+2} Σ_i C(k, i) α^{k-i} (w - α)^{i-k-2}.
    """
    zinv = Fraction((-1) ** k * alpha ** (k + 1))
    if kind == "o2p":
        return {(alpha, k + 2): Fraction(k + 1), (0, 1): zinv}
    lead = -(k + 1) * (-alpha) ** (k + 2)
    out = {(alpha, k + 2 - i): Fraction(lead * comb(k, i) * alpha ** (k - i)) for i in range(k + 1)}
    out[(0, 1)] = -zinv
    return out


# -- factor series ------------------------------------------------------------------

Desc = Tuple
TWO_POINT = ("o2p", "o2i")  # the factors that carry a live spectator
# principal parts of kernel_rational_part() and of omega02_diagonal()
KERNEL_PP: PfVector = {(1, 2): Fraction(1, 4), (1, 1): HALF, (-1, 2): Fraction(-1, 4), (-1, 1): HALF}
DIAGONAL_PP: PfVector = {(1, 2): Fraction(-1, 4), (1, 1): Fraction(1, 4), (-1, 2): Fraction(-1, 4),
                         (-1, 1): Fraction(-1, 4), (0, 2): Fraction(-1)}


def _factor_pp(desc: Desc) -> Iterable[Tuple[PfKey, Fraction]]:
    """Principal parts of a factor that watches no spectator."""
    if desc[0] == "xi":
        return xi_principal_parts(desc[1], desc[2])
    return {"R": KERNEL_PP, "diag": DIAGONAL_PP}[desc[0]].items()


def _factor_ord(desc: Desc, alpha: int) -> int:
    if desc[0] in TWO_POINT:
        return 0  # regular and non-zero at z = ±1 for a generic spectator
    return -max(j for (a, j), _ in _factor_pp(desc) if a == alpha)


PfTensor = Dict[Tuple[PfKey, ...], Fraction]  # principal-part coordinates, one key per slot


def _factor_terms(desc: Desc, alpha: int, upto: int) -> Dict[int, PfTensor]:
    """Series coefficients of one factor at z = α + u through u^upto, by exponent.

    Each coefficient is a tensor over the principal parts of the live
    spectator the factor watches: one slot for a two-point factor, none
    (the key ``()``) for the others.  Those are expanded from their
    principal parts: the part at α is the singular part of the series, and
    each pole β ≠ α adds (z - β)^{-j} = Σ_m C(-j, m) (α - β)^{-j-m} u^m.
    """
    if desc[0] in TWO_POINT:
        return {
            k: {(pk,): c for pk, c in two_point_coeff(desc[0], alpha, k).items()}
            for k in range(upto + 1)
        }
    ser: Dict[int, Fraction] = {}
    for (beta, j), c in _factor_pp(desc):
        if beta == alpha:
            ser[-j] = c
            continue
        d = Fraction(alpha - beta)
        for m in range(upto + 1):
            ser[m] = ser.get(m, 0) + (-1) ** m * comb(j + m - 1, m) * c / d ** (j + m)
    return {e: {(): c} for e, c in ser.items() if c}


_SIGNATURES: Dict[Tuple[Tuple[Desc, ...], int], Tuple[PfTensor, PfTensor]] = register("tr.signatures", {})


def _pf_data(factors: Tuple[Desc, ...], alpha: int) -> Tuple[PfTensor, PfTensor]:
    """Residue data of one factor signature at one branch point, memoized across all (g, n).

    Returns ``(data, tally)``.  ``data`` is the contribution to the root
    function: its keys are the root's principal-part key — (α, j), or (0, 1)
    for the 1/z term that the Mercator tail of log z feeds — followed by the
    live spectators' keys.  ``tally`` holds the coefficient of the formal
    log z at α by live keys; it must cancel in every sum.
    """
    hit = _SIGNATURES.get((factors, alpha))
    if hit is not None:
        return hit
    descs = factors + (("R",),)
    ords = [_factor_ord(d, alpha) for d in descs]
    total = sum(ords)
    prod: Dict[int, PfTensor] = {0: {(): Fraction(1)}}
    for i, (d, o) in enumerate(zip(descs, ords)):
        limit = -1 - sum(ords[i + 1:])  # the highest exponent the rest can still bring to u^{-1}
        nxt: Dict[int, PfTensor] = {}
        for e2, t2 in _factor_terms(d, alpha, -1 - (total - o)).items():
            for e1, t1 in prod.items():
                if e1 + e2 > limit:
                    continue
                t = nxt.setdefault(e1 + e2, {})
                for k1, c1 in t1.items():
                    for k2, c2 in t2.items():
                        t[k1 + k2] = t.get(k1 + k2, 0) + c1 * c2
        prod = nxt
    data: PfTensor = {}
    for j in range(1, 1 - total):
        m = mercator(alpha, j - 1) if j > 1 else 0
        for live, c in prod.get(-j, {}).items():
            data[((alpha, j),) + live] = -c
            if m:
                zkey = ((0, 1),) + live
                data[zkey] = data.get(zkey, 0) - m * c
    tally = {live: -c for live, c in prod.get(-1, {}).items() if c}
    hit = ({key: c for key, c in data.items() if c}, tally)
    _SIGNATURES[(factors, alpha)] = hit
    return hit


# -- decomposition over the basis -------------------------------------------------------

_PIVOTS: Dict[int, Tuple[Tuple[Fraction, Fraction], ...]] = register("tr.pivots", {})


def _pivot(k: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Inverse of the principal parts of ξ_{0,k}, ξ_{1,k} on the rows (+1, 2k + 2), (-1, 2k + 2).

    ξ_{p,k} has poles of order exactly 2k + 2 at both branch points, so this
    square is invertible and the basis matrix is block-triangular in k.  Row
    p of the inverse maps a vector's entries on those rows to γ_{p,k}.
    """
    hit = _PIVOTS.get(k)
    if hit is None:
        pps = [dict(xi_principal_parts(p, k)) for p in (0, 1)]
        square = [[pp[(a, 2 * k + 2)] for pp in pps] for a in (1, -1)]
        hit = tuple(zip(*(linsolve(square, unit) for unit in ((1, 0), (0, 1)))))
        _PIVOTS[k] = hit
    return hit


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


def xi_decompose(v: PfVector) -> Dict[XiKey, Fraction]:
    """Write a principal-part vector exactly as Σ γ_{p,k} PP(ξ_{p,k}).

    The highest pole order at ±1 fixes the top index.  From there down,
    γ_{0,k} and γ_{1,k} are read off the rows (±1, 2k + 2) of the running
    residual through :func:`_pivot`, and γ·PP(ξ) is subtracted from it.  The
    residual must end exactly empty, which certifies Σ γ·PP(ξ) = v in every
    coordinate; a vector outside the span raises :class:`EngineError`.  For a
    rational function f, pass ``principal_parts(f)``.
    """
    res = {key: c for key, c in v.items() if c}
    gammas: Dict[XiKey, Fraction] = {}
    top = max((j for a, j in res if a), default=0)
    for k in reversed(range(top // 2)):
        rows = (res.get((1, 2 * k + 2), 0), res.get((-1, 2 * k + 2), 0))
        if not any(rows):
            continue
        for p, inv in enumerate(_pivot(k)):
            gamma = inv[0] * rows[0] + inv[1] * rows[1]
            if gamma:
                gammas[(p, k)] = gamma
                for pk, x in xi_principal_parts(p, k):
                    res[pk] = res.get(pk, 0) - gamma * x
    left = sorted(key for key, c in res.items() if c)
    if left:
        raise EngineError(f"principal parts {sorted(v)} are not in the span of ξ; {left} are left")
    return gammas


def _decompose_slots(coeffs: PfTensor) -> Dict[Tuple[XiKey, ...], Fraction]:
    """ξ coordinates, in every slot, of a tensor given in principal-part coordinates.

    The slots are decomposed one at a time, spectators first and the root
    last; each slice is one certified :func:`xi_decompose`.
    """
    for s in reversed(range(max(map(len, coeffs), default=0))):
        slices: Dict[Tuple, PfVector] = {}
        for key, c in coeffs.items():
            if c:
                slices.setdefault(key[:s] + key[s + 1:], {})[key[s]] = c
        coeffs = {}
        for rest, vec in slices.items():
            for xik, gamma in xi_decompose(vec).items():
                key = rest[:s] + (xik,) + rest[s:]
                coeffs[key] = coeffs.get(key, 0) + gamma
    return coeffs


# -- the engine -------------------------------------------------------------------------

Bucket = Tuple  # per spectator slot: an (parity, k) pair or the LIVE marker


class Correlators:
    """Memoized computation of correlator tensors in the ξ basis."""

    def __init__(self) -> None:
        self._tensors: Dict[Tuple[int, int], XiTensor] = {}

    def tensor(self, g: int, n: int) -> XiTensor:
        if not is_stable(g, n):
            raise ValueError(f"(g, n) = ({g}, {n}) is not stable")
        key = (g, n)
        hit = self._tensors.get(key)
        if hit is None:
            hit = self._compute(g, n)
            self._tensors[key] = hit
        return hit

    # -- term enumeration -------------------------------------------------------

    def _side(self, g: int, n: int, slots: List[int], inv: int) -> List[Tuple[Fraction, Desc, Dict]]:
        """Terms of one side of a split: weight, factor in z, spectator assignment."""
        if (g, n) == (0, 2):
            return [(Fraction(1), (TWO_POINT[inv],), {slots[0]: LIVE})]
        sign = -1 if inv else 1  # ξ(1/z) d(1/z) = -ξ(z) dz
        return [(sign * c, ("xi",) + key[0], dict(zip(slots, key[1:])))
                for key, c in self.tensor(g, n).items()]

    def _groups(self, g: int, n: int) -> Dict[Tuple[Desc, ...], Dict[Bucket, Fraction]]:
        spect = n - 1
        groups: Dict[Tuple[Desc, ...], Dict[Bucket, Fraction]] = {}

        def add(w: Fraction, factors: Tuple[Desc, ...], bucket: Bucket) -> None:
            d = groups.setdefault(factors, {})
            d[bucket] = d.get(bucket, Fraction(0)) + w

        if g >= 1:
            gp, np_ = g - 1, n + 1
            if (gp, np_) == (0, 2):
                add(Fraction(1), (("diag",),), ())
            else:
                for key, c in self.tensor(gp, np_).items():
                    # the second slot is substituted: ξ(1/z) d(1/z) = -ξ(z) dz
                    add(-c, (("xi",) + key[0], ("xi",) + key[1]), key[2:])
        for g1 in range(g + 1):
            g2 = g - g1
            for mask in range(1 << spect):
                left = [t for t in range(spect) if mask >> t & 1]
                right = [t for t in range(spect) if not mask >> t & 1]
                n1, n2 = len(left) + 1, len(right) + 1
                if (g1, n1) == (0, 1) or (g2, n2) == (0, 1):
                    continue
                terms2 = self._side(g2, n2, right, 1)
                for c1, f1, a1 in self._side(g1, n1, left, 0):
                    for c2, f2, a2 in terms2:
                        assign = {**a1, **a2}
                        # two live spectators (only in (0,3)): order the factors as
                        # their spectators, so live keys line up with LIVE slots
                        swap = f1 == ("o2p",) and f2 == ("o2i",) and left[0] > right[0]
                        add(c1 * c2, (f2, f1) if swap else (f1, f2),
                            tuple(assign[t] for t in range(spect)))
        return groups

    # -- the computation -------------------------------------------------------------

    def _compute(self, g: int, n: int) -> XiTensor:
        acc: Dict[Bucket, PfTensor] = {}
        tallies: Dict[Tuple[Bucket, int], PfTensor] = {}
        for factors, buckets in self._groups(g, n).items():
            for alpha in (1, -1):
                data, tally = _pf_data(factors, alpha)
                for bucket, w in buckets.items():
                    _add_scaled(acc.setdefault(bucket, {}), data, w)
                    _add_scaled(tallies.setdefault((bucket, alpha), {}), tally, w)
        for (bucket, alpha), t in tallies.items():
            if any(t.values()):
                raise EngineError(
                    f"({g},{n}): residual log coefficient at z = {alpha} "
                    f"for spectator assignment {bucket}"
                )
        tensor: XiTensor = {}
        for bucket, coeffs in acc.items():
            for keys, gamma in _decompose_slots(coeffs).items():
                live = iter(keys[1:])
                out_key = (keys[0],) + tuple(next(live) if s == LIVE else s for s in bucket)
                tensor[out_key] = tensor.get(out_key, Fraction(0)) + gamma
        return {k: v for k, v in tensor.items() if v}


def _add_scaled(target: PfTensor, src: PfTensor, w: Fraction) -> None:
    for key, c in src.items():
        target[key] = target.get(key, 0) + w * c


_ENGINE = Correlators()
register("tr.tensors", _ENGINE._tensors)


def tr_tensor(g: int, n: int) -> XiTensor:
    """The (g, n) correlator in basis coordinates (memoized module-wide)."""
    return _ENGINE.tensor(g, n)


def tr_correlator(g: int, n: int) -> QuasiPolynomial:
    """The count polynomial read off the residue recursion."""
    return qp_from_xi_tensor(g, n, tr_tensor(g, n))
