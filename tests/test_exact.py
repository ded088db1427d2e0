"""Tests for the exact polynomial / rational-function / Laurent layer.

Every expected value here was computed by hand (long division, partial
fractions, geometric-series expansions) before the code existed.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from nbar.exact import (
    LaurentSeries,
    Poly,
    RationalFunction,
    _close,
    _integral,
    _reduced,
    linsolve,
    mercator,
)

F = Fraction
Z = RationalFunction.var()


def test_integer_division_stays_exact():
    # dividing integer coefficients yields Fractions, never floats
    monic = Poly([1, 2, 3]).monic()
    assert monic.coeffs == [F(1, 3), F(2, 3), 1]
    assert all(type(c) is Fraction for c in monic.coeffs)
    sol = linsolve([[2, 1], [1, 3]], [1, 2])
    assert sol == [F(1, 5), F(3, 5)]
    assert all(type(x) is Fraction for x in sol)
    assert type(RationalFunction(Poly([1]), Poly([0, 2]))(3)) is Fraction


def test_poly_basic_algebra():
    p = Poly([1, 2, 3])  # 1 + 2z + 3z^2
    q = Poly([0, 1])  # z
    assert (p + q).coeffs == [1, 3, 3]
    assert (p - p).is_zero
    assert (p * q).coeffs == [0, 1, 2, 3]
    assert (2 * p).coeffs == [2, 4, 6]
    assert (q ** 3).coeffs == [0, 0, 0, 1]
    assert p(2) == 17
    assert p(F(1, 2)) == F(11, 4)


def test_poly_trims_trailing_zeros():
    p = Poly([1, 0, 0])
    assert p.coeffs == [1]
    assert p.degree == 0
    assert Poly([]).degree == -1
    assert Poly([0, 0]).is_zero


def test_poly_divmod_is_exact_division():
    # (z^2 - 1) = (z - 1)(z + 1)
    num = Poly([-1, 0, 1])
    den = Poly([-1, 1])
    q, r = divmod(num, den)
    assert r.is_zero
    assert q.coeffs == [1, 1]
    # division by a non-monic divisor must not fall into float arithmetic
    q2, r2 = divmod(Poly([1, 0, 1]), Poly([0, 2]))
    assert q2.coeffs == [0, F(1, 2)]
    assert not any(isinstance(c, float) for c in q2.coeffs)
    assert r2.coeffs == [1]


def test_poly_divmod_roundtrip_grid():
    for a0 in range(-2, 3):
        for a1 in range(-2, 3):
            num = Poly([a0, a1, 1, F(1, 3)])
            den = Poly([1, a1, 2])
            q, r = divmod(num, den)
            assert q * den + r == num
            assert r.degree < den.degree


def test_poly_gcd_is_monic():
    a = Poly([-1, 0, 1]) * Poly([2, 2])  # (z^2-1)(2z+2)
    b = Poly([1, 2, 1])  # (z+1)^2
    g = a.gcd(b)
    assert g.coeffs == [1, 2, 1]  # monic (z+1)^2
    assert Poly([0, 3]).gcd(Poly([])).coeffs == [0, 1]


def test_poly_derivative_and_shift():
    p = Poly([5, 0, -3, 2])  # 5 - 3z^2 + 2z^3
    assert p.derivative().coeffs == [0, -6, 6]
    # p.shifted(a) must satisfy p.shifted(a)(u) == p(a + u)
    for a in (1, -1, F(3, 2)):
        s = p.shifted(a)
        for u in (0, 1, -2, F(1, 3)):
            assert s(u) == p(a + u)


def test_poly_valuation():
    assert Poly([0, 0, 5, 1]).valuation() == 2
    assert Poly([3]).valuation() == 0
    assert Poly([]).valuation() is None


def test_rational_function_canonical_form():
    # (z^2 - 1)/(z - 1) reduces to z + 1
    f = RationalFunction(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert f.num.coeffs == [1, 1]
    assert f.den.coeffs == [1]
    # denominators are normalised to be monic
    g = RationalFunction(Poly([1]), Poly([0, 2]))
    assert g.den.coeffs == [0, 1]
    assert g.num.coeffs == [F(1, 2)]
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Poly([1]), Poly([]))


def test_rational_function_field_ops():
    f = 1 / (1 - Z * Z)
    g = Z / (1 - Z)
    h = f + g
    # 1/(1-z^2) + z/(1-z) = (1 + z + z^2)/(1 - z^2)
    assert h == RationalFunction(Poly([1, 1, 1]), Poly([1, 0, -1]))
    assert f * (1 - Z * Z) == RationalFunction(1)
    assert (f - f).is_zero
    assert f / f == RationalFunction(1)
    assert (Z ** 0) == RationalFunction(1)
    assert 2 - Z == RationalFunction(Poly([2, -1]), Poly([1]))
    # evaluation agrees with the defining formula on a grid
    for t in (2, 3, F(1, 2), F(-5, 3)):
        assert f(t) == F(1, 1) / (1 - t * t)


def test_rational_function_derivative():
    f = 1 / (1 - Z * Z)
    expect = (2 * Z) / ((1 - Z * Z) * (1 - Z * Z))
    assert f.derivative() == expect
    # product rule spot check: (z * f)' = f + z f'
    assert (Z * f).derivative() == f + Z * f.derivative()


def test_substitute_inverse():
    f = (Z * Z + 3) / (Z ** 3 - Z)
    g = f.substitute_inverse()
    for t in (2, 3, F(1, 2), F(-3, 4)):
        assert g(t) == f(1 / F(t))
    # an antiinvariant combination: z + 1/z is fixed by z -> 1/z
    s = Z + 1 / Z
    assert s.substitute_inverse() == s


def test_order_at():
    # the order is reported even when no coefficient is asked for (upto below it),
    # which is how principal parts are read off at points where f is regular
    f = 1 / (1 - Z * Z)
    assert f.laurent_at(1, -1).ord == -1
    assert f.laurent_at(-1, -1).ord == -1
    assert f.laurent_at(0, -1).ord == 0
    g = (Z ** 3) / ((1 - Z * Z) ** 2)
    assert g.laurent_at(0, -1).ord == 3
    assert g.laurent_at(1, -1).ord == -2
    assert g.laurent_at(-1, -1).ord == -2
    assert g.laurent_at(2, -1).ord == 0


def test_laurent_expansion_at_one():
    # 1/(1-z^2) at z = 1 + u equals -1/(2u) + 1/4 - u/8 + u^2/16 - ...
    f = 1 / (1 - Z * Z)
    s = f.laurent_at(1, 2)
    assert s.ord == -1
    assert s.coeff(-1) == F(-1, 2)
    assert s.coeff(0) == F(1, 4)
    assert s.coeff(1) == F(-1, 8)
    assert s.coeff(2) == F(1, 16)
    assert s.coeff(-1) == F(-1, 2)
    # and at z = -1 the residue flips sign
    t = f.laurent_at(-1, 0)
    assert t.coeff(-1) == F(1, 2)


def test_laurent_expansion_matches_evaluation():
    # partial sums of the expansion converge to the function value
    f = (Z * Z + 1) / ((Z - 1) ** 2 * (Z + 2))
    s = f.laurent_at(1, 8)
    u = F(1, 100)
    partial = sum(s.coeff(e) * u ** e for e in range(s.ord, 9))
    exact = f(1 + u)
    assert abs(partial - exact) < F(1, 10 ** 12)


def test_series_at_zero():
    f = 1 / (1 - Z)
    s = f.laurent_at(0, 4)
    assert [s.coeff(e) for e in range(0, 5)] == [1, 1, 1, 1, 1]
    g = 1 / (Z * Z * (1 + Z))
    t = g.laurent_at(0, 1)
    assert t.ord == -2
    assert [t.coeff(e) for e in range(-2, 2)] == [1, -1, 1, -1]


def test_laurent_precision_tracking():
    f = 1 / (1 - Z)
    s = f.laurent_at(0, 3)  # known through u^3
    p = s * s  # 1 + 2u + 3u^2 + 4u^3 + O(u^4)
    assert [p.coeff(e) for e in range(0, 4)] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        p.coeff(4)
    # multiplying by u^2 shifts the reliable window
    mono = LaurentSeries(2, [1], None)
    q = s * mono
    assert q.coeff(5) == 1
    with pytest.raises(ValueError):
        q.coeff(6)


def test_laurent_zero_handling():
    s = LaurentSeries(0, [1, 2], 2)
    exact_zero = LaurentSeries(0, [], None)
    assert exact_zero.is_exactly_zero
    assert (s * exact_zero).is_exactly_zero
    # a series known to be zero only up to its precision is not exactly zero
    z = LaurentSeries(2, [], 2)
    assert not z.is_exactly_zero
    assert (s * z).coeffs == [] and (s * z).prec == 2


def test_log_series_tails():
    # log(1 + u) = u - u^2/2 + u^3/3 - ...
    assert [mercator(1, k) for k in range(1, 5)] == [1, F(-1, 2), F(1, 3), F(-1, 4)]
    # at alpha = -1, log(-1 + u) - log(-1) = log(1 - u) = -u - u^2/2 - u^3/3 - ...
    assert [mercator(-1, k) for k in range(1, 5)] == [-1, F(-1, 2), F(-1, 3), F(-1, 4)]


def test_linsolve_exact():
    # Hilbert-style system solved exactly
    m = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
    x = [F(1), F(-2), F(3)]
    rhs = [sum(m[i][j] * x[j] for j in range(3)) for i in range(3)]
    assert linsolve(m, rhs) == x
    with pytest.raises(ValueError):
        linsolve([[1, 2], [2, 4]], [1, 1])


def test_linsolve_vandermonde_grid():
    for nodes in ([1, 2, 3], [2, 4, 6], [F(1, 2), 1, F(3, 2)]):
        m = [[F(t) ** j for j in range(3)] for t in nodes]
        coeffs = [F(5), F(-1, 3), F(2)]
        rhs = [sum(coeffs[j] * F(t) ** j for j in range(3)) for t in nodes]
        assert linsolve(m, rhs) == coeffs


def test_integral_brings_ints_and_fractions_to_their_lcm():
    assert _integral({"a": 3, "b": F(1, 6), "c": F(-3, 4)}) == ({"a": 36, "b": 2, "c": -9}, 12)
    nums, den = _integral({(0, 1): 2, (1, 1): -5})
    assert (nums, den) == ({(0, 1): 2, (1, 1): -5}, 1)
    assert all(type(c) is int for c in nums.values())
    assert _integral({}) == ({}, 1)


def test_reduced_and_close_divide_out_one_gcd():
    assert _reduced({"a": 0, "b": 0}, 12) == ({}, 1)
    assert _reduced({"a": 6, "b": 0, "c": -9}, 12) == ({"a": 2, "c": -3}, 4)
    # Σ_d acc[d] / d over 2·root: 1/2 + 1/3 over 10 is 1/12
    assert _close({2: 1, 3: 1}, 10) == (1, 12)
    assert _close({1: 5 * 5 + 20}, 48) == (15, 16)
    assert _close({}, 7) == (0, 1)
