"""Residue recursion on the spectral curve x = z + 1/z, y = z.

The correlators of this recursion are finite combinations of a fixed family
of basis functions ξ_{parity,k} in each variable; the recursion is run
entirely in exact arithmetic by expanding everything as Laurent series at
the two branch points z = ±1, collecting the principal parts in the rooted
variable, and re-expressing every coefficient function in the ξ basis.
Each re-expression is certified by surplus interpolation nodes and an exact
closed-form round trip, so a returned tensor is correct, not plausible.

The two-point input of the recursion is the modified form
dz₁ dz₂ / (z₁ - z₂)² + dz₁ dz₂ / (z₁ z₂); substitutions z ↦ 1/z always act
on forms, i.e. they carry a Jacobian -1/z² per substituted slot.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .exact import (
    LaurentSeries,
    LogLaurentSeries,
    Poly,
    RationalFunction,
    invert_scalar,
    linsolve,
    log_series,
    poly_lcm,
)
from .lattice import br, is_stable
from .memo import register
from .quasipoly import QuasiPolynomial, XiKey, XiTensor, qp_from_xi_tensor

LIVE = "live"
HALF = Fraction(1, 2)


class EngineError(RuntimeError):
    """The recursion left its certified domain; the result would be untrusted."""


class XiDecompositionError(ValueError):
    """A function failed to decompose over the basis at the attempted index."""


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


@lru_cache(maxsize=None)
def xi_inverse_slot(parity: int, k: int) -> RationalFunction:
    """ξ_{parity,k} composed with z ↦ 1/z as a form slot (Jacobian included)."""
    jac = RationalFunction(Poly([-1]), Poly([0, 0, 1]))
    return xi(parity, k).substitute_inverse() * jac


register("tr.xi", xi)
register("tr.xi_inverse_slot", xi_inverse_slot)


def xi_rf(key: XiKey) -> RationalFunction:
    return xi(key[0], key[1])


def omega02_plain() -> RationalFunction:
    """Two-point slot function 1/(z - w)² + 1/(z w), rational in z over ℚ(w)."""
    w = RationalFunction.var()
    main = RationalFunction(Poly([1]), Poly([w * w, -2 * w, 1]))
    extra = RationalFunction(Poly([invert_scalar(w)]), Poly([0, 1]))
    return main + extra


def omega02_inverse_first() -> RationalFunction:
    """The same two-point slot with its z entry replaced by 1/z as a form."""
    w = RationalFunction.var()
    main = RationalFunction(Poly([1]), Poly([1, -2 * w, w * w]))
    extra = RationalFunction(Poly([invert_scalar(w)]), Poly([0, 1]))
    return -(main + extra)


def omega02_diagonal() -> RationalFunction:
    """The two-point slot evaluated on the pair (z, 1/z), as a form in z."""
    main = RationalFunction(Poly([1]), Poly([1, 0, -2, 0, 1]))
    extra = RationalFunction(Poly([1]), Poly([0, 0, 1]))
    return -(main + extra)


def kernel_rational_part() -> RationalFunction:
    """The factor z³/(1 - z²)² of the recursion kernel."""
    return RationalFunction(Poly([0, 0, 0, 1]), Poly([1, 0, -2, 0, 1]))


# -- factor bookkeeping --------------------------------------------------------------

Desc = Tuple
_FACTOR_RF_CACHE: Dict[Desc, RationalFunction] = register("tr.factor_rf", {})
_FACTOR_ORD_CACHE: Dict[Tuple[Desc, int], int] = register("tr.factor_ord", {})
_FACTOR_SER_CACHE: Dict[Tuple[Desc, int, int], LaurentSeries] = register("tr.factor_ser", {})


def _factor_rf(desc: Desc) -> RationalFunction:
    hit = _FACTOR_RF_CACHE.get(desc)
    if hit is None:
        kind = desc[0]
        if kind == "xi":
            _, p, k, inv = desc
            hit = xi_inverse_slot(p, k) if inv else xi(p, k)
        elif kind == "o2p":
            hit = omega02_plain()
        elif kind == "o2i":
            hit = omega02_inverse_first()
        elif kind == "diag":
            hit = omega02_diagonal()
        elif kind == "R":
            hit = kernel_rational_part()
        else:
            raise AssertionError(f"unknown factor {desc}")
        _FACTOR_RF_CACHE[desc] = hit
    return hit


def _factor_ord(desc: Desc, alpha: int) -> int:
    key = (desc, alpha)
    hit = _FACTOR_ORD_CACHE.get(key)
    if hit is None:
        hit = _factor_rf(desc).order_at(alpha)
        _FACTOR_ORD_CACHE[key] = hit
    return hit


def _factor_series(desc: Desc, alpha: int, upto: int) -> LaurentSeries:
    key = (desc, alpha, upto)
    hit = _FACTOR_SER_CACHE.get(key)
    if hit is None:
        hit = _factor_rf(desc).laurent_at(alpha, upto)
        _FACTOR_SER_CACHE[key] = hit
    return hit


def _mercator_coeff(alpha: int, k: int) -> Fraction:
    """Coefficient of u^k in log(alpha + u) - log(alpha), for alpha = ±1."""
    return Fraction((-1) ** (k - 1), k) * Fraction(1, alpha) ** k


# -- decomposition over the basis -------------------------------------------------------

_DECOMP_MEMO: Dict[Tuple[RationalFunction, int], Optional[Dict[XiKey, Fraction]]] = register(
    "tr.decompositions", {}
)


def xi_decompose(f: RationalFunction, kmax: int) -> Dict[XiKey, Fraction]:
    """Write f exactly as Σ γ_{p,k} ξ_{p,k} with k ≤ kmax (allowing escalation).

    The coefficients are found from the series at z = 0 on interpolation
    nodes, re-checked on two surplus nodes per parity, and finally certified
    by an exact closed-form round trip.  If the function does not fit at
    ``kmax`` the index is raised a few steps before giving up, so a bound
    that is merely expected (rather than proven) degree-sharp still works.
    """
    last: Optional[XiDecompositionError] = None
    for kk in range(kmax, kmax + 5):
        try:
            return _xi_decompose_at(f, kk)
        except XiDecompositionError as exc:
            last = exc
    raise EngineError(f"no basis decomposition with index <= {kmax + 4}: {last}")


def _xi_decompose_at(f: RationalFunction, kmax: int) -> Dict[XiKey, Fraction]:
    if f.is_zero:
        return {}
    memo_key = (f, kmax)
    if memo_key in _DECOMP_MEMO:
        hit = _DECOMP_MEMO[memo_key]
        if hit is None:
            raise XiDecompositionError(f"cached failure at kmax={kmax}")
        return hit
    try:
        out = _xi_decompose_core(f, kmax)
    except XiDecompositionError:
        _DECOMP_MEMO[memo_key] = None
        raise
    _DECOMP_MEMO[memo_key] = out
    return out


def _xi_decompose_core(f: RationalFunction, kmax: int) -> Dict[XiKey, Fraction]:
    evens = [2 * i for i in range(kmax + 3)]
    odds = [2 * i + 1 for i in range(kmax + 3)]
    s = f.series_at_zero(2 * kmax + 4)
    if s.ord < -1:
        raise XiDecompositionError("pole at 0 is not simple")
    gammas: Dict[XiKey, Fraction] = {}
    for parity, nodes in ((0, evens), (1, odds)):
        rows = [[Fraction(br(b) * b ** (2 * k)) for k in range(kmax + 1)] for b in nodes]
        rhs = [Fraction(s.coeff(b - 1)) for b in nodes]
        sol = linsolve(rows[: kmax + 1], rhs[: kmax + 1])
        for row, want in zip(rows[kmax + 1:], rhs[kmax + 1:]):
            got = sum((c * x for c, x in zip(row, sol)), Fraction(0))
            if got != want:
                raise XiDecompositionError(
                    f"parity {parity} surplus node disagrees at kmax={kmax}"
                )
        for k, c in enumerate(sol):
            if c:
                gammas[(parity, k)] = c
    recon = RationalFunction(0)
    for (p, k), c in gammas.items():
        recon = recon + c * xi(p, k)
    if recon != f:
        raise XiDecompositionError(f"round trip fails at kmax={kmax}")
    return gammas


# -- separable two-spectator sums (only the (0,3) computation needs them) ------------------


class SepSum:
    """A sum Σ_i f_i(z_a) · g_i(z_b) of separable products, kept explicitly."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence[Tuple[RationalFunction, RationalFunction]] = ()):
        self.pairs = [(f, g) for f, g in pairs if not f.is_zero and not g.is_zero]

    def __add__(self, other: "SepSum") -> "SepSum":
        return SepSum(self.pairs + other.pairs)

    def scale(self, c: Fraction) -> "SepSum":
        if not c:
            return SepSum()
        return SepSum([(c * f, g) for f, g in self.pairs])

    def __neg__(self) -> "SepSum":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "SepSum") -> "SepSum":
        return self + (-other)

    def is_zero(self) -> bool:
        """Exact zero test via a common denominator in the first variable."""
        if not self.pairs:
            return True
        den = Poly([1])
        for f, _ in self.pairs:
            den = poly_lcm(den, f.den)
        adjusted = [(f.num * den.exact_div(f.den), g) for f, g in self.pairs]
        width = max(p.degree for p, _ in adjusted) + 1
        for m in range(width):
            combo = RationalFunction(0)
            for p, g in adjusted:
                if m <= p.degree and p.coeffs[m]:
                    combo = combo + p.coeffs[m] * g
            if not combo.is_zero:
                return False
        return True


# -- the engine -------------------------------------------------------------------------

Bucket = Tuple  # per spectator slot: an (parity, k) pair or the LIVE marker
PfKey = Union[str, Tuple[int, int]]  # "zinv" or (alpha, pole order j)


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
            hit = self._tensor_03() if key == (0, 3) else self._compute(g, n)
            self._tensors[key] = hit
        return hit

    # -- term enumeration -------------------------------------------------------

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
                    factors = (
                        ("xi", key[0][0], key[0][1], 0),
                        ("xi", key[1][0], key[1][1], 1),
                    )
                    add(c, factors, key[2:])
        for g1 in range(g + 1):
            g2 = g - g1
            for mask in range(1 << spect):
                left = [t for t in range(spect) if mask >> t & 1]
                right = [t for t in range(spect) if not mask >> t & 1]
                n1, n2 = len(left) + 1, len(right) + 1
                if (g1, n1) == (0, 1) or (g2, n2) == (0, 1):
                    continue
                left_o2 = (g1, n1) == (0, 2)
                right_o2 = (g2, n2) == (0, 2)
                if left_o2 and right_o2:
                    raise AssertionError("double two-point split outside the (0,3) path")
                if left_o2:
                    s = left[0]
                    for key2, c2 in self.tensor(g2, n2).items():
                        bucket = [None] * spect
                        bucket[s] = LIVE
                        for pos, t in enumerate(right):
                            bucket[t] = key2[1 + pos]
                        add(
                            c2,
                            (("o2p",), ("xi", key2[0][0], key2[0][1], 1)),
                            tuple(bucket),
                        )
                elif right_o2:
                    s = right[0]
                    for key1, c1 in self.tensor(g1, n1).items():
                        bucket = [None] * spect
                        bucket[s] = LIVE
                        for pos, t in enumerate(left):
                            bucket[t] = key1[1 + pos]
                        add(
                            c1,
                            (("xi", key1[0][0], key1[0][1], 0), ("o2i",)),
                            tuple(bucket),
                        )
                else:
                    t2 = self.tensor(g2, n2)
                    for key1, c1 in self.tensor(g1, n1).items():
                        f1 = ("xi", key1[0][0], key1[0][1], 0)
                        for key2, c2 in t2.items():
                            bucket = [None] * spect
                            for pos, t in enumerate(left):
                                bucket[t] = key1[1 + pos]
                            for pos, t in enumerate(right):
                                bucket[t] = key2[1 + pos]
                            add(
                                c1 * c2,
                                (f1, ("xi", key2[0][0], key2[0][1], 1)),
                                tuple(bucket),
                            )
        return groups

    # -- principal-part data for one factor signature at one branch point --------------

    @staticmethod
    def _pf_data(factors: Tuple[Desc, ...], alpha: int):
        descs = list(factors) + [("R",)]
        ords = [_factor_ord(d, alpha) for d in descs]
        total = sum(ords)
        prod: Optional[LaurentSeries] = None
        for d, o in zip(descs, ords):
            ser = _factor_series(d, alpha, -1 - (total - o))
            prod = ser if prod is None else prod * ser
        assert prod is not None
        polord = max(0, -prod.ord)
        pf: Dict[int, object] = {}
        for m in range(polord):
            v = prod.coeff(-1 - m)
            if v:
                pf[m + 1] = -v
        zinv: object = Fraction(0)
        for k in range(1, polord):
            c = prod.coeff(-1 - k)
            if c:
                zinv = zinv - _mercator_coeff(alpha, k) * c
        tally = -prod.coeff(-1)
        return pf, zinv, tally

    # -- general computation -------------------------------------------------------------

    def _compute(self, g: int, n: int) -> XiTensor:
        D = 3 * g - 3 + n
        groups = self._groups(g, n)
        final: Dict[Bucket, Dict[PfKey, Fraction]] = {}
        live_acc: Dict[Bucket, Dict[PfKey, object]] = {}
        tallies: Dict[Tuple[Bucket, int], object] = {}
        for factors, buckets in groups.items():
            for alpha in (1, -1):
                pf, zinv, tally = self._pf_data(factors, alpha)
                for bucket, w in buckets.items():
                    tkey = (bucket, alpha)
                    tallies[tkey] = tallies.get(tkey, 0) + w * tally
                    acc = (live_acc if LIVE in bucket else final).setdefault(bucket, {})
                    for j, v in pf.items():
                        pkey = (alpha, j)
                        acc[pkey] = acc.get(pkey, 0) + w * v
                    if zinv:
                        acc["zinv"] = acc.get("zinv", 0) + w * zinv
        for (bucket, alpha), t in tallies.items():
            if t:
                raise EngineError(
                    f"({g},{n}): residual log coefficient at z = {alpha} "
                    f"for spectator assignment {bucket}"
                )
        for bucket, data in live_acc.items():
            s = bucket.index(LIVE)
            for pkey, val in data.items():
                if not val:
                    continue
                for xik, gamma in xi_decompose(val, D).items():
                    nb = bucket[:s] + (xik,) + bucket[s + 1:]
                    d = final.setdefault(nb, {})
                    d[pkey] = d.get(pkey, Fraction(0)) + gamma
        tensor: XiTensor = {}
        for bucket, data in final.items():
            f1 = _assemble_root_function(data)
            if f1.is_zero:
                continue
            for xik, gamma in xi_decompose(f1, D).items():
                out_key = (xik,) + bucket
                tensor[out_key] = tensor.get(out_key, Fraction(0)) + gamma
        return {k: v for k, v in tensor.items() if v}

    # -- the (0,3) computation, with two live spectators ------------------------------------

    def _tensor_03(self) -> XiTensor:
        alphas = (1, -1)
        # the two split terms: plain slot on one spectator, inverted on the other
        final: Dict[Tuple[XiKey, XiKey], Dict[PfKey, Fraction]] = {}
        pf_acc: Dict[PfKey, SepSum] = {}
        for alpha in alphas:
            tally = SepSum()
            for order in (0, 1):
                pf, zinv, t = _sep_pf_data(alpha, order)
                tally = tally + t
                for pkey, val in pf.items():
                    pf_acc[pkey] = pf_acc.get(pkey, SepSum()) + val
                pf_acc["zinv"] = pf_acc.get("zinv", SepSum()) + zinv
            if not tally.is_zero():
                raise EngineError(f"(0,3): residual log coefficient at z = {alpha}")
        for pkey, val in pf_acc.items():
            for pair_key, gamma in _sep_decompose(val, 0).items():
                d = final.setdefault(pair_key, {})
                d[pkey] = d.get(pkey, Fraction(0)) + gamma
        tensor: XiTensor = {}
        for (k2, k3), data in final.items():
            f1 = _assemble_root_function(data)
            if f1.is_zero:
                continue
            for k1, gamma in xi_decompose(f1, 0).items():
                key = (k1, k2, k3)
                tensor[key] = tensor.get(key, Fraction(0)) + gamma
        return {k: v for k, v in tensor.items() if v}


def _assemble_root_function(data: Dict[PfKey, Fraction]) -> RationalFunction:
    """Rebuild Σ c_{α,j} (z-α)^{-j} + c_inv/z from accumulated coefficients."""
    z = RationalFunction.var()
    f1 = RationalFunction(0)
    for pkey, c in data.items():
        if not c:
            continue
        if pkey == "zinv":
            f1 = f1 + c / z
        else:
            alpha, j = pkey
            f1 = f1 + RationalFunction(Poly([c]), Poly([-alpha, 1]) ** j)
    return f1


def _sep_pf_data(alpha: int, order: int):
    """Principal-part data of one (0,3) bracket term at one branch point.

    ``order`` 0 means the plain two-point slot watches the first spectator;
    1 means the spectators are exchanged.  Coefficients are separable sums.
    """
    descs = [("o2p",), ("o2i",), ("R",)]
    ords = [_factor_ord(d, alpha) for d in descs]
    total = sum(ords)
    sers = [
        _factor_series(d, alpha, -1 - (total - o)) for d, o in zip(descs, ords)
    ]
    sa, sb, sr = sers

    def coeff_pairs(e: int) -> SepSum:
        pairs = []
        for i in range(sa.ord, sa.ord + len(sa.coeffs)):
            fa = sa.coeffs[i - sa.ord]
            if not fa:
                continue
            for j in range(sb.ord, sb.ord + len(sb.coeffs)):
                r = e - i - j
                fb = sb.coeffs[j - sb.ord]
                if not fb:
                    continue
                if r < sr.ord or r >= sr.ord + len(sr.coeffs):
                    continue
                c = sr.coeffs[r - sr.ord]
                if not c:
                    continue
                left, right = (fa, fb) if order == 0 else (fb, fa)
                pairs.append((c * left, right))
        return SepSum(pairs)

    polord = max(0, -total)
    pf: Dict[Tuple[int, int], SepSum] = {}
    for m in range(polord):
        pf[(alpha, m + 1)] = -coeff_pairs(-1 - m)
    zinv = SepSum()
    for k in range(1, polord):
        zinv = zinv + coeff_pairs(-1 - k).scale(-_mercator_coeff(alpha, k))
    tally = -coeff_pairs(-1)
    return pf, zinv, tally


def _sep_decompose(val: SepSum, kmax: int) -> Dict[Tuple[XiKey, XiKey], Fraction]:
    """Express a separable sum as Σ γ ξ(z_a) ξ(z_b), certified by a round trip."""
    if not val.pairs:
        return {}
    evens = [2 * i for i in range(kmax + 3)]
    odds = [2 * i + 1 for i in range(kmax + 3)]
    nodes = evens + odds
    upto = max(nodes) - 1
    expansions = [(f.series_at_zero(upto), g) for f, g in val.pairs]
    for ser, _ in expansions:
        if ser.ord < -1:
            raise EngineError("(0,3): spectator pole at 0 is not simple")
    per_node: Dict[int, Dict[XiKey, Fraction]] = {}
    keys3: set = set()
    for b in nodes:
        h = RationalFunction(0)
        for ser, gfun in expansions:
            c = ser.coeff(b - 1)
            if c:
                h = h + c * gfun
        per_node[b] = xi_decompose(h, kmax)
        keys3.update(per_node[b])
    out: Dict[Tuple[XiKey, XiKey], Fraction] = {}
    for key3 in sorted(keys3):
        for parity, ns in ((0, evens), (1, odds)):
            rows = [[Fraction(br(b) * b ** (2 * k)) for k in range(kmax + 1)] for b in ns]
            rhs = [per_node[b].get(key3, Fraction(0)) for b in ns]
            sol = linsolve(rows[: kmax + 1], rhs[: kmax + 1])
            for row, want in zip(rows[kmax + 1:], rhs[kmax + 1:]):
                got = sum((c * x for c, x in zip(row, sol)), Fraction(0))
                if got != want:
                    raise EngineError("(0,3): spectator fit fails its surplus nodes")
            for k, c in enumerate(sol):
                if c:
                    out[((parity, k), key3)] = c
    recon = SepSum([(g * xi(*ka), xi(*kb)) for (ka, kb), g in out.items()])
    if not (recon - val).is_zero():
        raise EngineError("(0,3): spectator decomposition fails its round trip")
    return out


_ENGINE = Correlators()
register("tr.tensors", _ENGINE._tensors)


def tr_tensor(g: int, n: int) -> XiTensor:
    """The (g, n) correlator in basis coordinates (memoized module-wide)."""
    return _ENGINE.tensor(g, n)


def tr_correlator(g: int, n: int) -> QuasiPolynomial:
    """The count polynomial read off the residue recursion."""
    return qp_from_xi_tensor(g, n, tr_tensor(g, n))


# -- evaluation helpers for cross-checks ------------------------------------------------------


def tensor_value_at(tensor: XiTensor, zs: Sequence[Fraction]) -> Fraction:
    """Value of Σ c ∏ ξ at a rational point away from poles."""
    total = Fraction(0)
    for key, c in tensor.items():
        term = c
        for kk, z in zip(key, zs):
            term *= xi_rf(kk)(z)
        total += term
    return total


def correlator_rf_1pt(g: int) -> RationalFunction:
    """One-variable correlators assembled back into a single rational function."""
    out = RationalFunction(0)
    for key, c in tr_tensor(g, 1).items():
        out = out + c * xi_rf(key[0])
    return out


def grid_equal(
    fa: Callable[..., Fraction],
    fb: Callable[..., Fraction],
    nvars: int,
    degree_bound: int,
    start: int = 2,
) -> bool:
    """Deterministic equality of rational expressions on an oversized grid.

    Both callables must be rational of per-variable degree at most
    ``degree_bound`` (numerator and denominator separately); agreement on
    2·degree_bound + 1 nodes per variable then forces identity.
    """
    nodes = [Fraction(start + i) for i in range(2 * degree_bound + 1)]
    for pt in itertools.product(nodes, repeat=nvars):
        if fa(*pt) != fb(*pt):
            return False
    return True


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
    total = Fraction(0)
    for alpha in (1, -1):
        total += f.laurent_at(alpha, -1).coeff(-1)
    return total


def dilaton_scalar(parity: int, k: int) -> Fraction:
    """Σ_α Res_{z=α} (z²/2 - log z) ξ_{parity,k}(z) dz.

    The log residue splits into the formal branch value times Res ξ — which
    must vanish, and is asserted to — plus an explicit Mercator-tail part.
    """
    f = xi(parity, k)
    total = Fraction(0)
    for alpha in (1, -1):
        ser = f.laurent_at(alpha, -1)
        if ser.coeff(-1):
            raise EngineError(f"basis function ({parity},{k}) has residue at {alpha}")
        sq = LaurentSeries(0, [Fraction(alpha * alpha, 2), Fraction(alpha), HALF], None)
        merc = log_series(alpha, max(1, -1 - ser.ord)).plain
        total += (sq * ser).coeff(-1) - (merc * ser).coeff(-1)
    return total


def resatzero_check(parity: int, k: int) -> bool:
    """Branch-point residues of ξ log z against the residue at the origin."""
    f = xi(parity, k)
    lhs = Fraction(0)
    for alpha in (1, -1):
        ser = f.laurent_at(alpha, -1)
        if ser.coeff(-1):
            raise EngineError(f"basis function ({parity},{k}) has residue at {alpha}")
        merc = log_series(alpha, max(1, -1 - ser.ord)).plain
        lhs += (merc * ser).coeff(-1)
    rhs = f.series_at_zero(-1).coeff(-1)
    return lhs == rhs


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
    t1 = tr_tensor(g, n + 1)
    t0 = tr_tensor(g, n)
    lhs: Dict[Tuple[XiKey, ...], Fraction] = {}
    for key, c in t1.items():
        s = string_scalar(*key[0])
        if s:
            rest = key[1:]
            lhs[rest] = lhs.get(rest, Fraction(0)) + c * s
    terms: List[Tuple[Fraction, List[RationalFunction]]] = []
    for rest, c in lhs.items():
        if c:
            terms.append((c, [xi_rf(kk) for kk in rest]))
    for key, c in t0.items():
        for slot in range(n):
            funcs = [xi_rf(kk) for kk in key]
            funcs[slot] = string_transform(funcs[slot])
            terms.append((c, funcs))
    return multilinear_is_zero(terms)


def dilaton_check(g: int, n: int) -> bool:
    """Form-level dilaton identity: contracting with Σ_α Res (z²/2 - log z) ξ
    recovers 2g - 2 + n times the smaller correlator."""
    t1 = tr_tensor(g, n + 1)
    t0 = tr_tensor(g, n)
    lhs: Dict[Tuple[XiKey, ...], Fraction] = {}
    for key, c in t1.items():
        s = dilaton_scalar(*key[0])
        if s:
            rest = key[1:]
            lhs[rest] = lhs.get(rest, Fraction(0)) + c * s
    lhs = {k: v for k, v in lhs.items() if v}
    want = {k: (2 * g - 2 + n) * v for k, v in t0.items()}
    return lhs == want


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
