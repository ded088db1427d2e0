"""String and dilaton identities at the coefficient level.

These are identities between values of the count polynomials on integer
grids, using only the combinatorial recursion.  Acceptance criterion 4
states the same identities as residue contractions of the residue engine's
correlators (``checks.string`` and ``checks.dilaton``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from nbar import checks
from nbar.lattice import nbar_poly

F = Fraction

# the grids of the small cases, on which both identities are also checked pointwise
SMALL_GRIDS = {(0, 3): range(0, 5), (0, 4): range(0, 4), (1, 1): range(0, 10), (1, 2): range(0, 6)}


def string_rhs(g: int, n: int, b) -> Fraction:
    """Σ_k Σ_{a=0}^{b_k} [a] N̄_{g,n}(a, b without k), with [0] = 1."""
    qp = nbar_poly(g, n)
    total = F(0)
    for k in range(len(b)):
        rest = b[:k] + b[k + 1:]
        for a in range(0, b[k] + 1):
            total += (a if a else 1) * qp.evaluate((a,) + rest)
    return total


def test_string_identity_on_grids():
    # every case whose (g, n+1) both engines cross-validate, on b_i ≤ 2 or the wider grid of SMALL_GRIDS
    for g, n in checks.stable_cases(4):
        big = nbar_poly(g, n + 1)
        for b in itertools.product(SMALL_GRIDS.get((g, n), range(0, 3)), repeat=n):
            if sum(b) % 2 == 0:
                continue  # the extra argument is 1, so Σb must be odd
            assert big.evaluate((1,) + b) == string_rhs(g, n, b), (g, n, b)


def test_string_identity_includes_the_zero_term():
    # for b = (1,) the right side is [0]·N̄_{1,1}(0) + [1]·N̄_{1,1}(1)
    # = 5/12 + 0, which the count N̄_{1,2}(1,1) must reproduce exactly;
    # dropping the a = 0 term would lose 5/12.
    assert nbar_poly(1, 2).evaluate((1, 1)) == F(5, 12)
    assert string_rhs(1, 1, (1,)) == F(5, 12)


def test_dilaton_identity_on_grids():
    for (g, n), rng in SMALL_GRIDS.items():
        big = nbar_poly(g, n + 1)
        small = nbar_poly(g, n)
        factor = 2 * g - 2 + n
        for b in itertools.product(rng, repeat=n):
            if sum(b) % 2:
                continue
            lhs = big.evaluate((2,) + b) - big.evaluate((0,) + b)
            assert lhs == factor * small.evaluate(b)


def test_dilaton_identity_symbolically():
    # pinning the extra even argument at 2 and 0 and subtracting must give
    # (2g - 2 + n) times the smaller count polynomial, as polynomials, for
    # every case whose (g, n+1) both engines cross-validate
    for g, n in checks.stable_cases(4):
        big = nbar_poly(g, n + 1)
        diff = big.pin_even(2) - big.pin_even(0)
        assert diff == nbar_poly(g, n).scale(2 * g - 2 + n), (g, n)
