"""Tests for the spectral-curve residue engine and its basis functions.

Series coefficients asserted below follow from the generating-function
definition: ξ_{p,k} has the expansion Σ [b] b^{2k} z^{b-1} over integers
b ≥ 0 of parity p, with [b] = b for b > 0 and [0] = 1.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod

import pytest

from nbar.exact import Poly, RationalFunction, mercator
from nbar import checks, tr
from nbar.lattice import clear_caches, euler_char, is_stable, nbar_poly
from nbar.quasipoly import QuasiPolynomial, qp_to_json, qp_to_xi_tensor

F = Fraction
Z = RationalFunction.var()


# The engine's slot functions as rational functions of z.  The engine itself
# reads only their principal parts (tr.KERNEL_PP, tr.DIAGONAL_PP) and the
# closed forms of tr.two_point_coeff; the tests below check those against these.

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


def series_window(f: RationalFunction, lo: int, hi: int):
    s = f.laurent_at(0, hi)
    return [s.coeff(e) for e in range(lo, hi + 1)]


def test_xi_series_even_weightless():
    # Σ [b] z^{b-1}, b even: 1/z + 2z + 4z³ + 6z⁵ + ...
    assert series_window(checks.xi(0, 0), -1, 6) == [1, 0, 2, 0, 4, 0, 6, 0]


def test_xi_series_odd_weightless():
    # Σ b z^{b-1}, b odd: 1 + 3z² + 5z⁴ + ...
    assert series_window(checks.xi(1, 0), 0, 4) == [1, 0, 3, 0, 5]


def test_xi_series_even_weighted():
    # Σ b³ z^{b-1}, b even: 8z + 64z³ + 216z⁵
    assert series_window(checks.xi(0, 1), 1, 5) == [8, 0, 64, 0, 216]


def test_xi_series_general_law():
    for parity in (0, 1):
        for k in range(0, 3):
            s = checks.xi(parity, k).laurent_at(0, 8)
            for b in range(0, 10):
                want = 0
                if b % 2 == parity:
                    want = (b if b else 1) * b ** (2 * k)
                if b - 1 <= 8:
                    assert s.coeff(b - 1) == want


def test_xi_sum_and_difference_closed_forms():
    total = checks.xi(0, 0) + checks.xi(1, 0)
    want_sum = RationalFunction(Poly([1, -1, 1]), Poly([0, 1]) * Poly([-1, 1]) ** 2)
    assert total == want_sum
    diff = checks.xi(0, 0) - checks.xi(1, 0)
    want_diff = RationalFunction(Poly([1, 1, 1]), Poly([0, 1]) * Poly([1, 1]) ** 2)
    assert diff == want_diff


def test_poles_confined_rejects_foreign_poles():
    # the basis functions themselves are checked in criterion 7
    assert not checks.poles_confined(1 / (Z - 2))
    assert not checks.poles_confined(1 / (Z * Z))
    assert not checks.poles_confined(Z)  # not proper


def test_xi_invalid_index():
    with pytest.raises(ValueError):
        checks.xi(2, 0)
    with pytest.raises(ValueError):
        checks.xi(0, -1)
    with pytest.raises(ValueError, match=r"invalid basis index \(2, 0\)"):
        tr.xi_principal_parts(2, 0)
    with pytest.raises(ValueError, match=r"invalid basis index \(0, -1\)"):
        tr.xi_principal_parts(0, -1)


def test_two_point_slot_functions():
    for wq in (F(5), F(7, 2)):
        plain = omega02_plain(wq)
        for zq in (F(2), F(3), F(1, 2)):
            assert plain(zq) == 1 / (zq - wq) ** 2 + 1 / (zq * wq)
    diag = omega02_diagonal()
    for q in (F(2), F(3, 2), F(-4, 3)):
        assert diag(q) == -(1 / (q * q - 1) ** 2 + 1 / (q * q))
    for wq in (F(3), F(7, 2)):
        inv = omega02_inverse_first(wq)
        for zq in (F(2), F(5, 3)):
            assert inv(zq) == -(1 / (1 - zq * wq) ** 2 + F(1) / (zq * wq))


def test_kernel_rational_part():
    want = (Z ** 3) / ((1 - Z * Z) ** 2)
    assert kernel_rational_part() == want


def decompose(v):
    """tr.xi_decompose of principal parts given as Fractions, its γ as Fractions."""
    den = lcm(*(F(c).denominator for c in v.values()))
    gammas, gamma_den = tr.xi_decompose({key: int(c * den) for key, c in v.items()})
    return {xik: F(c, den * gamma_den) for xik, c in gammas.items()}


def test_xi_decompose_round_trip():
    f = 3 * checks.xi(0, 0) - F(7, 2) * checks.xi(1, 2) + checks.xi(0, 1)
    got = checks._xi_coords(f)
    assert got == {(0, 0): F(3), (1, 2): F(-7, 2), (0, 1): F(1)}
    assert checks._xi_coords(RationalFunction(0)) == {}
    assert tr.xi_decompose({}) == ({}, 1)


def test_xi_decompose_reads_index_off_highest_pole():
    # ξ_{0,3} has poles of order 8 at ±1, which alone fixes the top index 3
    assert checks._xi_coords(checks.xi(0, 3)) == {(0, 3): F(1)}
    # odd top order 3: no ξ has it, so the residual cannot be emptied
    with pytest.raises(tr.EngineError):
        checks._xi_coords(Z / (1 - Z * Z) ** 3)


def test_xi_decompose_rejects_foreign_functions():
    with pytest.raises(tr.EngineError):
        checks._xi_coords(1 / (Z - 2))
    with pytest.raises(tr.EngineError):
        checks._xi_coords(1 / (Z * Z))
    with pytest.raises(tr.EngineError):
        checks._xi_coords(Z / (1 - Z * Z) ** 3)


def test_principal_parts_reject_a_polynomial_part():
    # z²/(z - 1) = z + 1 + 1/(z - 1): its principal parts alone do not rebuild it
    for f in (Z, Z * Z / (Z - 1)):
        with pytest.raises(tr.EngineError):
            checks.principal_parts(f)


def principal_parts_by_series(f: RationalFunction):
    """Principal parts at -1, +1 and 0 read off Laurent expansions, independently of the engine."""
    out = {}
    for a in (1, -1, 0):
        s = f.laurent_at(a, -1)
        for j in range(1, 1 - s.ord):
            if s.coeff(-j):
                out[(a, j)] = s.coeff(-j)
    return out


def test_xi_principal_parts_match_laurent_expansions():
    for parity in (0, 1):
        for k in range(0, 9):
            want = principal_parts_by_series(checks.xi(parity, k))
            assert dict(tr.xi_principal_parts(parity, k)) == want, (parity, k)


def test_constant_factor_vectors_match_reference_functions():
    assert tr.KERNEL_PP == checks.principal_parts(kernel_rational_part())
    assert tr.DIAGONAL_PP == checks.principal_parts(omega02_diagonal())


def series_through(series, upto):
    """An engine series (e0, nums, den) as {exponent: Fraction} through u^upto, without its zero terms."""
    lo, nums, den = series
    assert type(den) is int and all(type(c) is int for c in nums)
    assert lo + len(nums) > upto, "the series does not reach the order asked for"
    return {e: F(c, den) for e, c in enumerate(nums, lo) if c and e <= upto}


def test_factor_series_match_laurent_expansions():
    factors = [(("xi", p, k), checks.xi(p, k)) for p in (0, 1) for k in range(0, 9)]
    factors += [(("R",), kernel_rational_part()), (("diag",), omega02_diagonal())]
    for desc, f in factors:
        for alpha in (1, -1):
            ser = f.laurent_at(alpha, 6)
            want = {ser.ord + i: c for i, c in enumerate(ser.coeffs) if c}
            got = tr._series(desc, alpha, 6)
            assert series_through(got, 6) == want, (desc, alpha)
            assert tr._factor_ord(desc, alpha) == ser.ord == got[0], (desc, alpha)


def test_a_series_not_integral_over_its_denominator_raises(monkeypatch):
    # a pole at z = 3 adds powers of 1/(-1 - 3) at z = -1, which outrun the powers of 2 that the
    # denominator holds for the poles at ±1
    real = tr._factor_pp
    clear_caches()
    monkeypatch.setattr(tr, "_factor_pp", lambda desc: [*real(desc), ((3, 1), F(1))])
    try:
        with pytest.raises(tr.EngineError, match="not integral"):
            tr._series(("R",), -1, 6)
    finally:
        clear_caches()


def test_two_point_coefficients_match_laurent_expansions():
    # Both sides of each comparison are proper rational functions of w whose
    # denominators divide (w - α)^{k+2} w, so for k ≤ 6 agreement at 10 rational
    # points (away from -1, 0, 1) makes them equal as functions of w.
    for kind, slot in (("o2p", omega02_plain), ("o2i", omega02_inverse_first)):
        for alpha in (1, -1):
            for w in (F(6 + i, 3) for i in range(10)):
                ser = slot(w).laurent_at(alpha, 6)
                assert ser.ord == 0
                for k in range(0, 7):
                    pp = tr.two_point_coeff(kind, alpha, k)
                    got = sum((c / (w - beta) ** j for (beta, j), c in pp.items()), F(0))
                    assert got == ser.coeff(k), (kind, alpha, k, w)


def test_xi_decompose_accepts_and_certifies_vectors():
    f = F(2) * checks.xi(1, 2) - checks.xi(0, 0)
    v = checks.principal_parts(f)
    assert v == principal_parts_by_series(f)
    assert decompose(v) == {(1, 2): F(2), (0, 0): F(-1)}
    with pytest.raises(tr.EngineError):
        decompose({**v, (0, 2): F(1)})  # double pole at 0
    with pytest.raises(tr.EngineError):
        decompose({(1, 2): F(1)})  # a pole at +1 alone is outside the span
    with pytest.raises(tr.EngineError):
        decompose({**v, (-1, 5): F(1, 3)})


def test_xi_decompose_takes_integer_numerators():
    f = checks.xi(0, 3) - F(7, 2) * checks.xi(1, 2) + F(3, 5) * checks.xi(0, 0)
    v = checks.principal_parts(f)
    den = lcm(*(c.denominator for c in v.values()))
    ints = {key: c.numerator * (den // c.denominator) for key, c in v.items()}
    want = {(0, 3): F(den), (1, 2): F(-7 * den, 2), (0, 0): F(3 * den, 5)}
    got = tr.xi_decompose(ints)
    assert is_least(got)  # γ numerators over one denominator, reduced by one gcd
    assert as_fractions(got) == decompose({key: F(c) for key, c in ints.items()}) == want
    for foreign in ({(1, 2): 1}, {(0, 2): 3}, {**ints, (-1, 5): 1}, {(1, 1): 1, (-1, 1): 2}):
        with pytest.raises(tr.EngineError):
            tr.xi_decompose(foreign)


# The residue data of a table built term by term in Fractions, one signed order of factors
# at a time: the reference for the engine's integer numerators over one denominator per table.

TWO_POINT = ("o2p", "o2i")  # the factors that carry a live spectator, regular at z = ±1


def reference_factor_ord(desc, alpha):
    return 0 if desc[0] in TWO_POINT else tr._factor_ord(desc, alpha)


def reference_factor_terms(desc, alpha, upto):
    if desc[0] in TWO_POINT:
        return {
            k: {(pk,): F(c) for pk, c in tr.two_point_coeff(desc[0], alpha, k).items()}
            for k in range(upto + 1)
        }
    ser = {}
    for (beta, j), c in tr._factor_pp(desc):
        if beta == alpha:
            ser[-j] = c
            continue
        d = F(alpha - beta)
        for m in range(upto + 1):
            ser[m] = ser.get(m, 0) + (-1) ** m * comb(j + m - 1, m) * c / d ** (j + m)
    return {e: {(): c} for e, c in ser.items() if c}


def flat(terms):
    """reference_factor_terms of a factor that watches no spectator, as {exponent: Fraction}."""
    return {e: t[()] for e, t in terms.items()}


def test_grown_series_match_the_reference_at_each_order():
    # a kept series asked at order 3 and then at 9 is regrown over its larger denominator, so every
    # coefficient is rescaled; it reaches exactly the order asked for, and serves the order-3 reader too
    clear_caches()
    for desc in (("xi", 0, 2), ("xi", 1, 3), ("R",), ("diag",)):
        for alpha in (1, -1):
            short = tr._series(desc, alpha, 3)
            assert series_through(short, 3) == flat(reference_factor_terms(desc, alpha, 3)), (desc, alpha)
            grown = tr._series(desc, alpha, 9)
            assert grown[2] > short[2] and grown[0] + len(grown[1]) == 10, (desc, alpha)
            assert series_through(grown, 9) == flat(reference_factor_terms(desc, alpha, 9)), (desc, alpha)
            assert tr._series(desc, alpha, 3) is grown


def test_kernel_product_is_the_fraction_product():
    clear_caches()
    for a in ((0, 0), (1, 0), (0, 2), (1, 3)):
        for alpha in (1, -1):
            for upto in (-1, 5):  # the singular part P[a] reads, then grown as a C[a, b] asks
                xi_a = flat(reference_factor_terms(("xi",) + a, alpha, upto + 2))  # R has a double pole
                kernel = flat(reference_factor_terms(("R",), alpha, upto + 2 * a[1] + 2))
                want = {}
                for e1, c1 in xi_a.items():
                    for e2, c2 in kernel.items():
                        if e1 + e2 <= upto:
                            want[e1 + e2] = want.get(e1 + e2, 0) + c1 * c2
                got = tr._kernel_product(a, alpha, upto)
                assert series_through(got, upto) == {e: c for e, c in want.items() if c}, (a, alpha, upto)


def reference_pf_data(factors, alpha):
    descs = factors + (("R",),)
    ords = [reference_factor_ord(d, alpha) for d in descs]
    total = sum(ords)
    prod = {0: {(): F(1)}}
    for i, (d, o) in enumerate(zip(descs, ords)):
        limit = -1 - sum(ords[i + 1:])
        nxt = {}
        for e2, t2 in reference_factor_terms(d, alpha, -1 - (total - o)).items():
            for e1, t1 in prod.items():
                if e1 + e2 > limit:
                    continue
                t = nxt.setdefault(e1 + e2, {})
                for k1, c1 in t1.items():
                    for k2, c2 in t2.items():
                        t[k1 + k2] = t.get(k1 + k2, 0) + c1 * c2
        prod = nxt
    data = {}
    for j in range(1, 1 - total):
        m = mercator(alpha, j - 1) if j > 1 else 0
        for live, c in prod.get(-j, {}).items():
            data[((alpha, j),) + live] = -c
            if m:
                zkey = ((0, 1),) + live
                data[zkey] = data.get(zkey, 0) - m * c
    tally = {live: -c for live, c in prod.get(-1, {}).items() if c}
    return data, tally


@lru_cache(maxsize=None)
def reference_table(orders):
    acc = {}
    for alpha in (1, -1):
        tally = {}
        for sign, factors in orders:
            for target, part in zip((acc, tally), reference_pf_data(factors, alpha)):
                for key, c in part.items():
                    target[key] = target.get(key, 0) + sign * c
        assert not any(tally.values()), (orders, alpha)
    coeffs = acc
    for s in reversed(range(max(map(len, coeffs), default=0))):
        slices = {}
        for key, c in coeffs.items():
            if c:
                slices.setdefault(key[:s] + key[s + 1:], {})[key[s]] = c
        coeffs = {}
        for rest, vec in slices.items():
            for xik, gamma in decompose(vec).items():
                key = rest[:s] + (xik,) + rest[s:]
                coeffs[key] = coeffs.get(key, 0) + gamma
    return coeffs


def as_fractions(table):
    """A table or tensor of the engine, integer numerators over one denominator, as Fractions."""
    nums, den = table
    return {key: F(c, den) for key, c in nums.items()}


def is_least(table):
    """Integer numerators over a positive denominator that no common factor divides."""
    nums, den = table
    return all(type(c) is int and c for c in nums.values()) and type(den) is int and gcd(den, *nums.values()) == 1


def test_integer_tables_match_the_fraction_reference():
    clear_caches()
    for g, n in checks.stable_cases(5):
        tr.tr_tensor(g, n)
    assert len(tr._TABLES) > 50
    for orders, table in tr._TABLES.items():
        assert is_least(table), orders
        assert as_fractions(table) == reference_table(orders), orders


def test_table_brings_branch_points_with_different_denominators_to_one(monkeypatch):
    # z -> -z gives both branch points of a table one denominator, so the part at z = -1 is put over
    # 7 times its own: the table must still come out over one least denominator, equal to the reference
    real, seen = tr._table, {}

    def spy(orders, parts, *rest):
        seen[orders] = parts
        return real(orders, parts, *rest)

    clear_caches()
    monkeypatch.setattr(tr, "_table", spy)
    tr._pair((0, 0), (1, 2))
    tr._two_point((1, 1))
    tr._tensor(1, 1)
    assert len(seen) == 3
    for orders, (plus, (data, tally, den)) in seen.items():
        minus = ({key: 7 * c for key, c in data.items()}, tally, 7 * den)
        got = real(orders, [plus, minus])
        assert is_least(got) and as_fractions(got) == reference_table(orders), orders


@lru_cache(maxsize=None)
def reference_tensor(g, n):
    """ω_{g,n} contracted term by term in Fractions on the reference tables, one key per orbit.

    The recursion of tr.tr_tensor without its integer buckets, grouped weights
    or twin splits: every (root, spectators) entry of every smaller correlator
    meets its whole table, and each term is added to the result as a Fraction.
    """
    if (g, n) == (1, 1):
        return reference_table(((1, (("diag",),)),))
    if (g, n) == (0, 3):
        table = reference_table(((1, (("o2p",), ("o2i",))), (1, (("o2i",), ("o2p",)))))
        return {key: c for key, c in table.items() if key[1] <= key[2]}
    out = {}

    def add(orders, c, spectators):
        for (root, *live), x in reference_table(orders).items():
            rest = sorted((*spectators, *live))
            key = (root,) + tuple(rest)
            out[key] = out.get(key, 0) + prod(map(rest.count, live), start=c) * x

    def pair(a, b):
        return ((-1, (("xi",) + min(a, b), ("xi",) + max(a, b))),)

    if g >= 1:
        for (a, *spect), c in reference_tensor(g - 1, n + 1).items():
            for i, b in enumerate(spect):
                if i == 0 or spect[i - 1] != b:
                    add(pair(a, b), c, spect[:i] + spect[i + 1:])
    for g1 in range(g + 1):
        for m in range(n):
            if is_stable(g1, m + 1) and is_stable(g - g1, n - m):
                for (a, *s1), c1 in reference_tensor(g1, m + 1).items():
                    for (b, *s2), c2 in reference_tensor(g - g1, n - m).items():
                        both = s1 + s2
                        ways = prod(comb(both.count(x), s1.count(x)) for x in set(s1))
                        add(pair(a, b), ways * c1 * c2, both)
    if n > 1:
        for (a, *rest), c in reference_tensor(g, n - 1).items():
            add(((1, (("xi",) + a, ("o2i",))), (-1, (("o2p",), ("xi",) + a))), c, rest)
    return {key: c for key, c in out.items() if c}


def test_integer_contraction_matches_the_fraction_reference():
    for g, n in checks.stable_cases(5):
        assert is_least(tr._tensor(g, n)), (g, n)
        got = tr.tr_tensor(g, n)
        assert all(type(c) is F for c in got.values()), (g, n)
        assert got == reference_tensor(g, n), (g, n)


def test_residual_log_coefficient_raises(monkeypatch):
    real = tr._residue_data

    def skewed(first, live, alpha):
        data, tally, den = real(first, live, alpha)
        return data, {**tally, (): 1}, den

    clear_caches()  # a table built before the patch would be reused, never reaching the skewed data
    monkeypatch.setattr(tr, "_residue_data", skewed)
    try:
        with pytest.raises(tr.EngineError, match="residual log"):
            tr.tr_tensor(1, 1)
        with pytest.raises(tr.EngineError, match="residual log"):
            tr._two_point((0, 0))
    finally:
        clear_caches()


def test_one_two_point_order_alone_leaves_a_log():
    # only the sum of the two orders of ω_{0,2}(·, w) and ξ_a has its log terms cancel
    for p, k in ((0, 0), (1, 0), (0, 2)):
        orders = ((1, (("xi", p, k), ("o2i",))), (-1, (("o2p",), ("xi", p, k))))
        for alpha in (1, -1):
            total = {}
            for sign, factors in orders:
                _, tally = reference_pf_data(factors, alpha)
                assert any(tally.values()), (factors, alpha)
                for key, c in tally.items():
                    total[key] = total.get(key, 0) + sign * c
            assert not any(total.values()), (p, k, alpha)
        assert tr._two_point((p, k))  # the sum is certified


def test_two_point_differences_decompose_at_every_order_the_ladder_reaches():
    # P[a] meets Δ^α_k for k ≤ 2k_a + 3, and the χ ≤ 7 ladder joins the roots a of every χ ≤ 6 tensor
    clear_caches()
    for g, n in checks.stable_cases(7):
        tr._tensor(g, n)
    reach = 2 * max(key[0][1] for g, n in checks.stable_cases(6) for key in tr._tensor(g, n)[0]) + 3
    assert tr._two_point_diff.cache_info().currsize == 2 * (reach + 1)
    for alpha in (1, -1):
        for k in range(reach + 1):
            want = {key: F(c) for key, c in tr.two_point_coeff("o2i", alpha, k).items()}
            for key, c in tr.two_point_coeff("o2p", alpha, k).items():
                want[key] = want.get(key, 0) - c
            nums, den = tr._two_point_diff(alpha, k)
            got = {}
            for (p, kk), c in nums.items():
                for key, x in tr.xi_principal_parts(p, kk):
                    got[key] = got.get(key, 0) + F(c, den) * x
            assert nums and {key: c for key, c in got.items() if c} == {key: c for key, c in want.items() if c}


def test_each_two_point_slot_alone_is_outside_the_xi_span():
    for alpha in (1, -1):
        for k in range(1, 7):
            for kind in TWO_POINT:
                with pytest.raises(tr.EngineError, match="not in the span"):
                    tr.xi_decompose(tr.two_point_coeff(kind, alpha, k))


def test_a_skewed_two_point_slot_fails_the_join_table(monkeypatch):
    real = tr.two_point_coeff

    def skewed(kind, alpha, k):
        v = real(kind, alpha, k)
        if kind == "o2i":
            v[(0, 2)] = 1  # a double pole at w = 0, which no ξ has
        return v

    clear_caches()  # a difference decomposed before the patch would be reused
    monkeypatch.setattr(tr, "two_point_coeff", skewed)
    try:
        with pytest.raises(tr.EngineError, match="not in the span"):
            tr._two_point((0, 0))
    finally:
        clear_caches()


def test_asymmetric_pair_table_fails_the_symmetry_certificate(monkeypatch):
    # the contraction is symmetric in the spectators by construction, but not
    # in the root and a spectator: qp_from_xi_tensor has to check that
    real = tr._pair

    def doubled(a, b):
        nums, den = real(a, b)
        return ({key: 2 * c for key, c in nums.items()}, den) if a == b == (0, 0) else (nums, den)

    clear_caches()
    monkeypatch.setattr(tr, "_pair", doubled)
    try:
        with pytest.raises(tr.EngineError, match="not slot-symmetric"):
            tr.tr_correlator(1, 2)
    finally:
        clear_caches()  # the engine memo now holds the skewed (1,2) tensor


def test_one_handle_tensor():
    assert tr.tr_tensor(1, 1) == {((0, 0),): F(5, 12), ((0, 1),): F(1, 48)}


def test_one_handle_closed_form():
    got = sum((c * checks.xi(*key[0]) for key, c in tr.tr_tensor(1, 1).items()), RationalFunction(0))
    assert got == checks.ONE_HANDLE
    assert checks.is_form_antiinvariant(got)
    assert checks.poles_confined(got)


def test_three_point_tensor():
    # one key per (root, sorted spectators): the orbit {o, o, e} has the roots o and e
    e, o = (0, 0), (1, 0)
    want = {
        (e, e, e): F(1),
        (o, e, o): F(1),
        (e, o, o): F(1),
    }
    assert tr.tr_tensor(0, 3) == want


def test_engine_matches_combinatorial_counts():
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
        assert tr.tr_tensor(g, n) == qp_to_xi_tensor(nbar_poly(g, n))


def test_residue_engine_satisfies_dilaton_and_euler_through_chi_6():
    # anchors for the χ = 6 tensors that need no comb polynomial, which is too slow there:
    # N̄_{g,n+1}(b, 2) - N̄_{g,n+1}(b, 0) = (2g - 2 + n) N̄_{g,n}(b) as polynomials, and N̄_{g,n}(0) = χ(M_{g,n})
    for g, n in checks.stable_cases(5):
        big = nbar_poly(g, n + 1, "tr")
        assert big.pin_even(2) - big.pin_even(0) == nbar_poly(g, n, "tr").scale(2 * g - 2 + n), (g, n)
    for g, n in ((0, 8), (1, 6), (2, 4)):
        assert nbar_poly(g, n, "tr").evaluate((0,) * n) == euler_char(g, n), (g, n)
    # the value at b = 0 is the constant coefficient, which is what checks.euler and the comb value table read
    for g, n in checks.stable_cases(5):
        for engine in ("comb", "tr"):
            qp = nbar_poly(g, n, engine)
            assert qp.coefficient(0, (0,) * n) == qp.evaluate((0,) * n), (g, n, engine)


def test_a_skewed_two_point_difference_leaves_a_residual_log(monkeypatch):
    # Δ^α_1 doubled stays in the ξ span, so only the log tally on the Δ combination can catch it:
    # the u^{-1} coefficient gains (ξ_a R)_{-2} Δ^α_1
    real = tr._two_point_diff

    def skewed(alpha, k):
        nums, den = real(alpha, k)
        return ({w: 2 * c for w, c in nums.items()}, den) if k == 1 else (nums, den)

    clear_caches()
    monkeypatch.setattr(tr, "_two_point_diff", skewed)
    try:
        for a in ((0, 0), (1, 0), (0, 2)):
            with pytest.raises(tr.EngineError, match="residual log"):
                tr._two_point(a)
    finally:
        clear_caches()


def test_top_coefficients_of_the_residue_engine_through_chi_8():
    outcomes = list(checks.top_coefficients(8, "tr"))
    assert len(outcomes) == len(checks.stable_cases(8))
    assert all(o.ok for o in outcomes), [o.line for o in outcomes if not o.ok]


def test_top_coefficients_report_a_differing_orbit(monkeypatch):
    real = checks.witten_kontsevich
    monkeypatch.setattr(checks, "witten_kontsevich", lambda g, a: real(g, a) + (g == 1))
    (three, one_handle) = checks.top_coefficients(1, "tr")
    assert three.ok and three.line == "top (0,3) tr: 2 top-degree orbits ok"
    assert not one_handle.ok and one_handle.line.startswith("top (1,1) tr: FAIL 1 of 1 top-degree orbits differ")
    assert one_handle.diffs == (((0, (1,)), F(1, 24), F(25, 24)),)  # (1,1) has only the even class


def test_top_coefficients_fail_without_a_top_degree_orbit(monkeypatch):
    # a constant polynomial has its only orbit at degree 0, the top degree of (0,3) alone
    monkeypatch.setattr(checks, "nbar_poly", lambda g, n, engine: QuasiPolynomial(g, n, {0: {(0,) * n: 1}}))
    (three, one_handle) = checks.top_coefficients(1, "tr")
    assert three.ok
    assert (one_handle.line, one_handle.ok, one_handle.diffs) == ("top (1,1) tr: FAIL no top-degree orbit", False, ())


def test_branch_residue_rejects_a_simple_pole_at_a_branch_point():
    for alpha in (1, -1):
        with pytest.raises(tr.EngineError, match=f"residue 1/2 at the branch point {alpha}"):
            checks._branch_residue({(0, 1): F(1), (alpha, 1): F(1, 2)}, Poly([0, 1]))


def test_string_scalar_table():
    for k in range(0, 6):
        assert checks.string_scalar(1, k) == 1
        assert checks.string_scalar(0, k) == 0


def test_dilaton_scalar_table():
    for k in range(0, 4):
        want = 4 ** k - (1 if k == 0 else 0)
        assert checks.dilaton_scalar(0, k) == want
        assert checks.dilaton_scalar(1, k) == 0


def test_string_transform():
    got = checks.string_transform(RationalFunction(1))
    want = ((Z * Z) / (Z * Z - 1)).derivative()
    assert got == want


# The qp_to_json SHA-256 of every tr case with χ ≤ 8, as the contraction in
# Fractions gave them; the comb engine gives the same digest at every χ = 8 case.
TR_DIGESTS = {
    (0, 3): "551d2a26fd2d2bbb2b9122db6b517d23a1e1b6fdc0d60b0873bcf59a46bc803d",
    (1, 1): "1d56d6fc800263e9866eeacda98b8f5a94347f2063bf9a0c76ba58d5d36386ba",
    (0, 4): "39b48f1f6da1813ebce4c0bc576c86e13467c306b04066ca8613c361328cc5b3",
    (1, 2): "5099c35db885d6cf7c7f1a1a21fefe6958110684d4e703a25b2f166fe23477af",
    (0, 5): "69f848b0fc1c39aa3f2cee42d24e14f33ee3abbfb0cfb5ca8a02efa8ba1227a9",
    (1, 3): "f6622dbeb8e1aed6c6b297302aa8c44e0c4639f3873f6717a1d02d12140e937f",
    (2, 1): "58e93b8cbb707f0ca433a5063a25a302b3d57fa69e142aa9d944d11a2c741b33",
    (0, 6): "d3a13ea59265726c4b5a3af1150d60653c4be00e52fe1be5f5fab55f5f302984",
    (1, 4): "97ee2a1d5a5fdccda3251cef5c32bda95c34a3b7ba3c677e9ad5b6f6f770c81e",
    (2, 2): "75493349dafcfcb386c86f0c2f24f30f5f3b5f8206140622c31a06ea4a56abbb",
    (0, 7): "4b59538a0e012e5ce2b99911857b4cf6cde48f71956ca63be624e0f907ed736f",
    (1, 5): "1ebd9b130799f4da6b4dd1d65be9b0e68f16fd1110060d8f64e4e57e8580a683",
    (2, 3): "afdb2ee76b221a71fefb65e3e3e3a80ac7becc1a1f9580c009c17eb328a6ffc7",
    (3, 1): "01ab6384a041ab4430c51ad0e4ba48a375712e9ef15a15c4d4533d85a63505b6",
    (0, 8): "e5255fe61c6c9269e3f347c126633f6fab7ca7f132fdbcaaf15e6a1039794f7c",
    (1, 6): "16c7d58de2851bcf734f50d61bea2b03fb6ae0f26df6f68ae0276311c5bff0bf",
    (2, 4): "bf6c35036688f26316ec0337c4096e7625548cfba65c100bd5f5d64df6db9682",
    (3, 2): "5026c48344955ecccf8799b05f4d8e79418733537870f8e3ae84c4206dd9f976",
    (0, 9): "2897cc35dfc63905ba6b6ad61f8ae56501cb524c6de04731d6d5a2529f7edf3b",
    (1, 7): "7473c656b943eb90898b70862ebf42449c6d6ca2cdd29516836df37c746bbb4c",
    (2, 5): "f19fc05a1bcb3494430c828b3b21207fc10f746043d1c498f26769730c64ec62",
    (3, 3): "3495b8cfbe032b93ac682f0bbac74916622fe934969dd2be3e1f574771579bbe",
    (4, 1): "e2ff3567a0a786118db9297f281a043fd2794fd8f9e5d0491b8876479d8114d8",
    (0, 10): "e7d9ea9a8283a5055be4281b8f106b445da329af485405ee5346b54568d642ea",
    (1, 8): "49064765a006611edaed796f31f98f4a271574b625eacbd2ba07758547db1ac6",
    (2, 6): "00f4365a599bb4363a3a25d53a444e2719c8fdbf612d812fa17a9311d4196ab0",
    (3, 4): "a76709f4c4aaa7888936bb518f280d3f0181db451693debce36862a04887e5b4",
    (4, 2): "342c2c99d4efa329349301a006ce55dfecc25b24b704ed4e6e70291ef667a94e",
}


def test_tr_digests_through_chi_8_are_pinned():
    assert list(TR_DIGESTS) == checks.stable_cases(8)
    for (g, n), want in TR_DIGESTS.items():
        assert hashlib.sha256(qp_to_json(nbar_poly(g, n, "tr")).encode()).hexdigest() == want, (g, n)
