"""Acceptance gate: one test per deliverable criterion, one line of output each.

Run with ``pytest -v`` (each criterion shows as its own PASSED/FAILED row) or
``pytest -s`` to see the ACCEPTANCE summary lines as they print.  This file
sorts first in the suite, so the timings measured here start from cold caches.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from nbar import checks, golden, tr
from nbar.lattice import (
    euler_char,
    nbar_eval,
    nbar_eval_asym,
    nbar_poly,
    positivity_report,
    psi_number,
)
from nbar.quasipoly import QuasiPolynomial

F = Fraction

# every stable case with 2g - 2 + n ≤ 8: both engines must produce identical
# polynomials, all of them inside a ten-minute budget
MANDATORY_CROSS = checks.stable_cases(8)

# the flagged (0,6) k=0 row differs from the computed one in exactly these
# coefficient families (nonzero exponents of b², sorted): computed, published
SUSPECT_FAMILIES = {
    (1, 1): (F(9, 16), F(3, 2)),
    (1, 2): (F(3, 128), F(3, 28)),
}


def test_criterion_1_reference_table():
    t0 = time.monotonic()
    outcomes = list(checks.table())
    assert all(o.ok for o in outcomes), [o.line for o in outcomes if not o.ok]
    # the flagged table row differs in its two known misprinted families and nowhere else
    assert golden.SUSPECT_CASES == [(0, 6)] and golden.SUSPECT == {(0, 6, 0)}
    (suspect,) = [o for o in outcomes if o.line.startswith("(0,6) k=0: suspect row")]
    families = {(tuple(sorted(e for e in key if e)), a, b) for key, a, b in suspect.diffs}
    assert families == {(fam, a, b) for fam, (a, b) in SUSPECT_FAMILIES.items()}, sorted(families)
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"table reproduction took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 (reference table, {elapsed:.1f}s): PASS")


def test_criterion_2_engine_cross_validation():
    t0 = time.monotonic()
    outcomes = list(checks.engines(8))  # the MANDATORY_CROSS cases, then the asymmetric points
    assert len(outcomes) == len(MANDATORY_CROSS) + len(checks.ASYMMETRIC_POINTS)
    assert all(o.ok for o in outcomes), [o.line for o in outcomes if not o.ok]
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"cross-validation took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 2 (engine cross-validation, {len(MANDATORY_CROSS)} cases"
        f" with chi ≤ 8, {elapsed:.1f}s): PASS"
    )


def test_criterion_3_desk_checks():
    assert tr.tr_tensor(1, 1) == {((0, 0),): F(5, 12), ((0, 1),): F(1, 48)}
    assert [o.line for o in checks.desk()] == ["desk (1,1): ok", "desk (0,3): ok"]
    print("ACCEPTANCE 3 (desk checks for the one-handle and three-point correlators): PASS")


def test_criterion_4_string_and_dilaton():
    outcomes = list(checks.string()) + list(checks.dilaton())
    assert len(outcomes) == 8 and all(o.ok for o in outcomes), [o.line for o in outcomes]
    assert nbar_eval(1, 2, (1, 3)) == F(17, 12)
    qp12 = nbar_poly(1, 2)
    want = QuasiPolynomial(1, 1, {0: {(1,): F(1, 48), (0,): F(5, 12)}})
    assert qp12.pin_even(2) - qp12.pin_even(0) == want
    print("ACCEPTANCE 4 (string and dilaton identities, forms and counts): PASS")


def test_criterion_5_euler_characteristics():
    want = {
        (0, 3): F(1),
        (0, 4): F(2),
        (0, 5): F(7),
        (0, 6): F(34),
        (1, 1): F(5, 12),
        (1, 2): F(1, 2),
        (1, 3): F(17, 12),
        (2, 1): F(247, 1440),
        (2, 2): F(413, 720),
    }
    for (g, n), w in want.items():
        assert euler_char(g, n) == w, f"χ({g},{n})"
    outcomes = list(checks.euler(4))  # χ(g, n) against the count polynomial at the origin
    assert len(outcomes) == 10 and all(o.ok for o in outcomes), [o.line for o in outcomes]
    print("ACCEPTANCE 5 (Euler characteristics and counts at the origin): PASS")


def test_criterion_6_psi_intersection_numbers():
    assert psi_number(0, (0, 0, 0)) == 1
    assert psi_number(1, (1,)) == F(1, 24)
    assert psi_number(0, (2, 0, 0, 0, 0)) == 1
    assert psi_number(0, (1, 1, 0, 0, 0)) == 2
    assert psi_number(2, (4,)) == F(1, 1152)
    # every top-degree orbit of every cross-checked polynomial against the DVV recursion
    outcomes = list(checks.top_coefficients(8, "comb"))
    assert len(outcomes) == len(MANDATORY_CROSS)
    assert all(o.ok for o in outcomes), [o.line for o in outcomes if not o.ok]
    print(
        f"ACCEPTANCE 6 (intersection numbers from the top coefficients of {len(outcomes)} cases"
        " against Witten–Kontsevich): PASS"
    )


def test_criterion_7_property_suites():
    # parity: counts vanish on odd total boundary length
    for g, n in [(0, 3), (0, 4), (1, 1), (1, 2)]:
        for b in itertools.product(range(0, 4), repeat=n):
            if sum(b) % 2:
                assert nbar_eval(g, n, b) == 0
    # permutation symmetry
    for b in itertools.product(range(0, 4), repeat=4):
        if sum(b) % 2 or sum(b) == 0:
            continue
        vals = {nbar_eval(0, 4, p) for p in set(itertools.permutations(b))}
        assert len(vals) == 1
    # the table's value and the step rooted at b_1 agree point by point on full boxes
    for b in itertools.product(range(0, 7), repeat=4):
        if sum(b) % 2 or b[0] == 0:
            continue
        assert nbar_eval_asym(0, 4, b) == nbar_eval(0, 4, b)
    for b in itertools.product(range(0, 7), repeat=2):
        if sum(b) % 2 or b[0] == 0:
            continue
        assert nbar_eval_asym(1, 2, b) == nbar_eval(1, 2, b)
    # basis functions: antiinvariant one-forms, poles confined to {-1, 0, 1},
    # branch-point residues of ξ log z matching the residue at the origin
    for parity in (0, 1):
        for k in range(0, 6):
            f = checks.xi(parity, k)
            assert checks.is_form_antiinvariant(f)
            assert checks.poles_confined(f)
    outcomes = list(checks.residues())
    assert len(outcomes) == 12 and all(o.ok for o in outcomes), [o.line for o in outcomes]
    print("ACCEPTANCE 7 (parity, symmetry, recursion agreement, basis properties): PASS")


def test_criterion_8_positivity():
    assert positivity_report() == []
    print("ACCEPTANCE 8 (coefficient positivity over the table range): PASS")
