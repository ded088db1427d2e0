"""Tests for the lattice-point count recursions and derived quantities.

The spot values asserted here were worked out by hand from the defining
recursion before any code existed: for example (Σb_i)·N̄_{0,4}(2,0,0,0)
receives 2·N̄_{0,3} = 2 from each of the three pairs joining the marked
boundary to a zero one, so N̄_{0,4}(2,0,0,0) = 6/2 = 3.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from nbar import checks, lattice, memo, tr
from nbar.lattice import (
    clear_caches,
    euler_char,
    is_stable,
    nbar_eval,
    nbar_eval_asym,
    nbar_poly,
    psi_number,
)
from nbar.quasipoly import qp_fit

F = Fraction


def test_stability():
    assert not is_stable(0, 1)
    assert not is_stable(0, 2)
    assert is_stable(0, 3)
    assert is_stable(1, 1)
    assert is_stable(2, 1)
    assert not is_stable(-1, 5)


def test_base_case_three_points():
    for b in itertools.product(range(0, 7), repeat=3):
        if sum(b) == 0:
            continue
        want = F(1) if sum(b) % 2 == 0 else F(0)
        assert nbar_eval(0, 3, b) == want


def test_base_case_one_handle():
    for b in range(2, 21, 2):
        assert nbar_eval(1, 1, (b,)) == F(b * b + 20, 48)
    for b in range(1, 20, 2):
        assert nbar_eval(1, 1, (b,)) == 0


def test_hand_computed_values():
    assert nbar_eval(0, 4, (2, 0, 0, 0)) == 3
    assert nbar_eval(0, 4, (1, 1, 0, 0)) == 1
    assert nbar_eval(1, 2, (2, 0)) == F(11, 12)
    assert nbar_eval(1, 2, (1, 3)) == F(17, 12)


def test_four_point_closed_form():
    # N̄_{0,4} = (Σ b_i²)/4 + c with c = 2, 1/2, 2 for 0, 2, 4 odd entries
    const = {0: F(2), 2: F(1, 2), 4: F(2)}
    for b in itertools.product(range(0, 6), repeat=4):
        if sum(b) % 2 or sum(b) == 0:
            continue
        odd = sum(1 for v in b if v % 2)
        want = F(sum(v * v for v in b), 4) + const[odd]
        assert nbar_eval(0, 4, b) == want


def test_odd_total_vanishes():
    for g, n in [(0, 3), (0, 4), (1, 1), (1, 2)]:
        for b in itertools.product(range(0, 5), repeat=n):
            if sum(b) % 2:
                assert nbar_eval(g, n, b) == 0


def test_symmetry_under_permutation():
    for b in itertools.product(range(0, 5), repeat=3):
        if sum(b) == 0:
            continue
        vals = {nbar_eval(1, 3, p) for p in itertools.permutations(b)}
        assert len(vals) == 1


def test_all_zero_point_is_special():
    with pytest.raises(ValueError, match="polynomial continuation"):
        nbar_eval(0, 4, (0, 0, 0, 0))
    # the polynomial itself does have a value there
    assert nbar_poly(0, 4).evaluate((0, 0, 0, 0)) == 2
    assert nbar_poly(1, 2).evaluate((0, 0)) == F(1, 2)


def test_input_validation():
    with pytest.raises(ValueError):
        nbar_eval(0, 2, (2, 2))
    with pytest.raises(ValueError):
        nbar_eval(0, 4, (1, 2, 3))
    with pytest.raises(ValueError):
        nbar_eval(0, 4, (-2, 2, 0, 0))


def _value(g, n, b):
    return F(*lattice._pair(g, n, tuple(b)))


def _reference_cut(g, n, p, q, rest):
    """N̄_{g-1,n+1}(p, q, rest) + Σ N̄(p, I) N̄(q, J) over the stable splits, one term at a time."""
    total = _value(g - 1, n + 1, (p, q) + rest) if g >= 1 else F(0)
    for g1 in range(g + 1):
        for mask in itertools.product((True, False), repeat=len(rest)):
            part_i = tuple(v for v, inside in zip(rest, mask) if inside)
            part_j = tuple(v for v, inside in zip(rest, mask) if not inside)
            if is_stable(g1, len(part_i) + 1) and is_stable(g - g1, len(part_j) + 1):
                left = _value(g1, len(part_i) + 1, (p,) + part_i)
                total += left * _value(g - g1, len(part_j) + 1, (q,) + part_j)
    return total


def _reference_symmetric(g, n, b):
    """N̄(b) from (Σ b) N̄ = first + second / 2: every pair joined, every entry cut at every (r, p)."""
    first = second = F(0)
    for i, j in itertools.combinations(range(n), 2):
        rest = b[:i] + b[i + 1:j] + b[j + 1:]
        m = b[i] + b[j]
        for q in range(2, m + 1, 2):
            first += lattice.br(m - q) * q * _value(g, n - 1, (m - q,) + rest)
    for i in range(n):
        for r in range(2, b[i] + 1, 2):
            for p in range(b[i] - r + 1):
                q = b[i] - r - p
                second += lattice.br(p) * lattice.br(q) * r * _reference_cut(g, n, p, q, b[:i] + b[i + 1:])
    return (first + second / 2) / sum(b)


def _reference_asymmetric(g, n, b):
    """N̄(b) from the step rooted at b_1, over every q ≥ 1 and every r ≥ 1, odd ones included."""
    b1, total = b[0], F(0)
    for j in range(1, n):
        rest = b[1:j] + b[j + 1:]
        for sign, m in ((1, b1 + b[j]), ((b1 > b[j]) - (b1 < b[j]), abs(b1 - b[j]))):
            for q in range(1, m + 1):
                total += sign * lattice.br(m - q) * q * _value(g, n - 1, (m - q,) + rest)
    for r in range(1, b1 + 1):
        for p in range(b1 - r + 1):
            q = b1 - r - p
            total += lattice.br(p) * lattice.br(q) * r * _reference_cut(g, n, p, q, b[1:])
    return total / (2 * b1)


def test_recursion_steps_match_a_term_by_term_reference():
    # nbar_eval and nbar_eval_asym run one rooted step over the same join and cut sums, so
    # their agreement does not check those sums.  The symmetric formula lives only in this
    # test: it roots at no single entry and writes every term out, so it checks the sums
    # independently of the step; the rooted reference checks every root.  The points have
    # repeated, zero and all-distinct entries; the last two have a run of three and two runs
    # at once, so the step's run weights are checked at genus 0 and 1.  A split that is its
    # own mirror has weight ways, not 2 ways: (2, 3, (2, 2, 4)) rooted at 4 has one at genus 1
    # on each side, one entry 2 on each, and (0, 5, (0, 0, 2, 2, 4)) has them at genus 0; at
    # (2, 3, (3, 3, 12)) its two pieces are one running-sum entry, N̄_{1,2}(q, 3), grown to 9.
    # The first points have roots of 11 and 12 whose splits read running sums that smaller
    # points grew first: the steps at (0, 0, 1, 11) and (1, 2, 11) rescale the entries of
    # N̄_{1,2}(q, 0) and N̄_{1,3}(q, 1, 2), left over 2 and 3 by the root-3 points, to 12 and 6.
    # Every value is taken before any reference runs, so it is the step that grows them.
    rescaled = {(1, 4, (0, 0, 1, 11)): ((1, 2, (0,)), 2, 12), (2, 3, (1, 2, 11)): ((1, 3, (1, 2)), 3, 6)}
    points = [
        (1, 4, (0, 0, 1, 3)), (1, 4, (0, 0, 1, 11)), (2, 3, (1, 2, 3)), (2, 3, (1, 2, 11)), (1, 3, (2, 3, 11)),
        (2, 3, (3, 3, 12)), (0, 5, (1, 1, 2, 2, 12)),
        (0, 5, (0, 0, 2, 2, 4)), (1, 3, (2, 3, 3)), (2, 2, (4, 4)), (1, 4, (1, 1, 1, 3)), (2, 1, (6,)),
        (1, 4, (0, 2, 3, 5)), (2, 2, (3, 9)), (0, 6, (1, 1, 1, 3, 3, 5)), (1, 5, (2, 2, 2, 4, 4)),
        (2, 3, (2, 2, 4)),
    ]
    clear_caches()
    values = []
    for g, n, b in points:
        key, before, after = rescaled.get((g, n, b), (None, None, None))
        if key:
            assert lattice._SUMS[key][0] == before, key
        values.append(nbar_eval(g, n, b))
        if key:
            assert lattice._SUMS[key][0] == after, key
    for (g, n, b), want in zip(points, values):
        assert _reference_symmetric(g, n, b) == want, b
        for root in sorted(set(itertools.permutations(b))):
            if root[0]:
                assert nbar_eval_asym(g, n, root) == _reference_asymmetric(g, n, root), root


def test_split_cut_is_twice_a_dot_product_of_running_sums():
    # Σ_{p+q ≤ r-2} (r - p - q)[p][q] f(p) h(q) = 2 Σ_{p'+q'=r-2} A_f[p'] A_h[q'] over p ≡ πf,
    # q ≡ πh and r ≡ πf + πh, where A_f[t] = Σ_{p ≤ t, p ≡ t} [p] f(p): (r - p - q) / 2 counts
    # the pairs (p', q') ≥ (p, q) of the same parities with p' + q' = r - 2.  At r - 2 < πf + πh
    # both sides are empty, and at r - 2 = πf + πh the dot product has one term.
    rng = random.Random(1906)
    for pf, ph in itertools.product((0, 1), repeat=2):
        for r in range(pf + ph or 2, 18, 2):
            f, h = ([rng.randint(-99, 99) for _ in range(r)] for _ in range(2))
            a_f, a_h = ([sum(lattice.br(p) * x[p] for p in range(t % 2, t + 1, 2)) for t in range(r)] for x in (f, h))
            cut = sum(
                (r - p - q) * lattice.br(p) * lattice.br(q) * f[p] * h[q]
                for p in range(pf, r - 1, 2) for q in range(ph, r - 1 - p, 2)
            )
            dot = sum(a_f[p] * a_h[r - 2 - p] for p in range(pf, r - 1 - ph, 2))
            assert cut == 2 * dot, (pf, ph, r)


def test_step_with_random_values_matches_the_term_by_term_reference(monkeypatch):
    # The step's sums are identities in the values they read, so with every value a seeded
    # random fraction (zero at an odd total, symmetric in its arguments) the step must still
    # equal the term-by-term reference, and the denominators make the running sums rescale.
    # The roots cover every parity pair of a split's pieces: an empty dot product ((1, 1, 2, 2)
    # and (3, 3) at 2, (1, 2, 2, 2) at 1), a one-term one (at 2 and at 4, at 3), long ones at
    # 11-13, and a self-mirrored split whose pieces are one entry ((1, 2) twice, (3,) twice).
    # A value's own step may grow and rescale other entries: here each new N̄_{0,3}(q, 1, 1)
    # first grows the entry of N̄_{0,3}(q, 2, 2) to q = 40, whose values past 30 are over 7.
    # The split (2, 2) | (1, 1) grows (2, 2)'s entry first, so it must read that entry's
    # denominator only after (1, 1)'s has grown.
    rng = random.Random(36)
    values = {}

    def random_pair(g, n, b):
        if sum(b) % 2:
            return (0, 1)
        key = (g, n, tuple(sorted(b)))
        if key not in values:
            v = F(rng.randint(-99, 99), 7 if max(b) > 30 else rng.choice((1, 2, 3, 4, 6)))
            values[key] = (v.numerator, v.denominator)
            if (g, n) == (0, 3) and b[1:] == (1, 1):
                lattice._running(0, 3, (2, 2), 40)
        return values[key]

    cases = [
        (0, 5, (1, 1, 2, 2), (2, 4, 12)), (0, 5, (1, 2, 2, 2), (1, 3, 11)), (1, 3, (1, 2), (1, 3, 13)),
        (2, 2, (3,), (1, 11)), (2, 3, (3, 3), (2, 4, 12)),
    ]
    clear_caches()
    monkeypatch.setattr(lattice, "_pair", random_pair)
    try:
        for g, n, rest, roots in cases:
            for root in roots:
                assert F(*lattice._step(g, n, root, rest)) == _reference_asymmetric(g, n, (root,) + rest), (rest, root)
    finally:
        clear_caches()  # the running sums hold the random values


def _compositions(m):
    """Every tuple of positive run lengths with sum m."""
    if not m:
        yield ()
    for first in range(1, m + 1):
        for tail in _compositions(m - first):
            yield (first,) + tail


def _stable_labelled_splits(g, m):
    """Every (g1, slots_i, g2, slots_j) that shares genus g and slots 0..m-1 between two stable pieces."""
    splits = []
    for g1, inside in itertools.product(range(g + 1), itertools.product((True, False), repeat=m)):
        slots_i = tuple(t for t in range(m) if inside[t])
        slots_j = tuple(t for t in range(m) if not inside[t])
        if is_stable(g1, len(slots_i) + 1) and is_stable(g - g1, len(slots_j) + 1):
            splits.append((g1, slots_i, g - g1, slots_j))
    return sorted(splits)


def test_stable_splits_by_runs_expand_to_every_labelled_split_once():
    # An entry takes the first t slots of each run into piece i and the rest into piece j;
    # choosing which t slots of each run instead gives its ways labelled splits.  Its mirror
    # swaps the pieces, and the entry stands for both with weight 2 ways, or with weight ways
    # when it is its own mirror.  Expanded, with the mirror's labelled splits where the weight
    # is 2 ways, the entries of each run pattern must give every stable labelled split exactly
    # once, and with every run of length 1 the entries are labelled splits themselves.
    for g in range(4):
        for m in range(7):
            labelled = _stable_labelled_splits(g, m)
            ones = lattice._stable_splits(g, (1,) * m)
            assert {entry[:4] for entry in ones} <= set(labelled) and {entry[4] for entry in ones} <= {1, 2}
            for runs in _compositions(m):
                starts = [sum(runs[:k]) for k in range(len(runs))]
                expanded = []
                for g1, slots_i, g2, slots_j, weight in lattice._stable_splits(g, runs):
                    takes = [sum(start <= s < start + r for s in slots_i) for start, r in zip(starts, runs)]
                    firsts = tuple(s for start, t in zip(starts, takes) for s in range(start, start + t))
                    others = tuple(s for start, t, r in zip(starts, takes, runs) for s in range(start + t, start + r))
                    assert (slots_i, slots_j) == (firsts, others), (g, runs)
                    choices = list(itertools.product(*(
                        itertools.combinations(range(start, start + r), t) for start, t, r in zip(starts, takes, runs)
                    )))
                    self_mirrored = (g1, takes) == (g2, [r - t for r, t in zip(runs, takes)])
                    assert weight == (1 if self_mirrored else 2) * len(choices), (g, runs)
                    for choice in choices:
                        inside = tuple(sorted(itertools.chain(*choice)))
                        outside = tuple(t for t in range(m) if t not in inside)
                        expanded.append((g1, inside, g2, outside))
                        if not self_mirrored:
                            expanded.append((g2, outside, g1, inside))
                assert sorted(expanded) == labelled, (g, runs)


def _direct_sum(g, n, spect, c):
    return sum((c - q) * lattice.br(q) * _value(g, n, (q,) + spect) for q in range(c % 2, c - 1, 2))


def test_running_sums_match_a_direct_sum():
    # every query of the running-sum table, c A[t] - B[t] over the entry's one denominator at
    # t = c - 2, against Σ (c - q)[q] N̄(q, S) term by term; the queries go up, back down below
    # the extended top, and up again.  N̄_{1,2}(q, 0) has denominators 2, 12, 3, 4, … in turn,
    # so that entry is rescaled after it has grown; (1,1) and (0,3) are the closed forms.
    clear_caches()
    for g, n, spect in [(1, 2, (0,)), (1, 1, ()), (0, 3, (1, 3)), (0, 4, (1, 2, 3)), (2, 1, ())]:
        parity = sum(spect) % 2
        for c in [top + parity for top in (10, 4, 2, 0, 16, 8)]:
            acc = {}
            lattice._sum(acc, 3, g, n, spect, c)
            assert sum(F(num, den) for den, num in acc.items()) == 3 * _direct_sum(g, n, spect, c)
        entry = lattice._SUMS[(g, n, spect)]
        common, stored = entry[0], len(entry)
        assert stored == 1 + 2 * 9  # L, then A and B from the empty sum to t = 14 + parity
        for c in range(parity, 17 + parity, 2):  # t = c - 2 runs over every stored t
            acc = {}
            lattice._sum(acc, 1, g, n, spect, c)
            assert len(acc) <= 1 and F(acc.get(common, 0), common) == _direct_sum(g, n, spect, c), (spect, c)
        assert len(entry) == stored
    assert _value(1, 2, (0, 0)).denominator != lattice._SUMS[(1, 2, (0,))][0]


def test_asymmetric_recursion_needs_positive_first_argument():
    # (0, 1, 0, 0) has an odd total, which must not short-cut past the check
    for bad in ((0, 2, 0, 0), (0, 1, 0, 0)):
        with pytest.raises(ValueError):
            nbar_eval_asym(0, 4, bad)


def test_both_evaluators_reject_non_integers():
    # truncating 7/2 to 3 would return the value at (3, 1), 17/12
    for evaluate in (nbar_eval, nbar_eval_asym):
        for bad in (1.5, F(7, 2)):
            with pytest.raises(ValueError):
                evaluate(1, 2, (bad, 1))


def test_poly_engines_agree():
    # the fit of the step rooted at b_1 equals the comb polynomial: the step does not depend on its root
    for g, n in checks.stable_cases(5):
        assert nbar_poly(g, n) == qp_fit(lambda b: nbar_eval_asym(g, n, b), g, n), (g, n)
    for unknown in ("magic", "comb-asym"):
        with pytest.raises(ValueError):
            nbar_poly(0, 4, engine=unknown)


def test_engines_agree_at_seeded_random_points():
    # both evaluators and both engines' polynomials, at 6 random points of even
    # total per χ ≤ 4 case; the seed makes every run check the same points
    rng = random.Random(2019)
    for g, n in checks.stable_cases(4):
        comb, residue = nbar_poly(g, n), nbar_poly(g, n, engine="tr")
        for _ in range(6):
            b = [rng.randint(1, 12)] + [rng.randint(0, 12) for _ in range(n - 1)]
            b[0] += sum(b) % 2
            want = nbar_eval(g, n, b)
            assert nbar_eval_asym(g, n, b) == comb.evaluate(b) == residue.evaluate(b) == want, (g, n, b)


def test_memo_holds_reduced_integer_pairs():
    # inside the recursion a value is (numerator, denominator): coprime ints, denominator positive
    clear_caches()
    rng = random.Random(13)
    for g, n in checks.stable_cases(4):
        for _ in range(3):
            b = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(n - 1)]
            b[0] += sum(b) % 2
            assert type(nbar_eval(g, n, b)) is Fraction
            assert type(nbar_eval_asym(g, n, b)) is Fraction
    table = lattice._MEMO
    assert table
    for key, pair in table.items():
        assert isinstance(pair, tuple) and len(pair) == 2, (key, pair)
        num, den = pair
        assert type(num) is int and type(den) is int, (key, pair)
        assert den > 0 and math.gcd(num, den) == 1, (key, pair)


def test_one_handle_value_is_reduced():
    assert nbar_eval(1, 1, (2,)) == F(1, 2)
    assert lattice._pair(1, 1, (2,)) == (1, 2)


def test_asymmetric_and_zero_entry_points_match_residue_engine():
    # b_1 < b_j makes the asymmetric root step subtract (negative b_1 - b_j terms);
    # a zero entry sends the recursion through the continuation at b = 0
    clear_caches()
    for g, n in checks.stable_cases(4):
        if n < 2:
            continue
        residue = nbar_poly(g, n, "tr")
        small_root = (1, 5) + (2,) * (n - 2)
        with_zero = (0, 4) + (2,) * (n - 2)
        assert nbar_eval_asym(g, n, small_root) == residue.evaluate(small_root), (g, n)
        assert nbar_eval(g, n, small_root) == residue.evaluate(small_root), (g, n)
        assert nbar_eval(g, n, with_zero) == residue.evaluate(with_zero), (g, n)
        assert nbar_eval_asym(g, n, with_zero[::-1]) == residue.evaluate(with_zero), (g, n)
    assert any(not any(b) for _, _, b in lattice._MEMO)  # the continuation at b = 0 is a value like any other


def test_poly_matches_pointwise_values():
    qp = nbar_poly(1, 2)
    for b in itertools.product(range(0, 7), repeat=2):
        if sum(b) % 2 or sum(b) == 0:
            continue
        assert qp.evaluate(b) == nbar_eval(1, 2, b)


def test_euler_unreachable_cases():
    with pytest.raises(ValueError):
        euler_char(3, 1)
    with pytest.raises(ValueError):
        euler_char(3, 2)
    with pytest.raises(ValueError):
        euler_char(0, 0)


def test_euler_fills_its_table_without_deep_recursion():
    # the table is filled genus by genus in increasing n, so the stack does not grow with n
    clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        shallow = euler_char(0, 300)
    finally:
        sys.setrecursionlimit(limit)
    clear_caches()
    assert shallow == euler_char(0, 300)


def test_euler_rejects_unstable_pairs():
    # (0,1) and (0,2) seed the recursion but are not stable moduli spaces
    for g, n in [(0, 1), (0, 2), (-1, 4)]:
        with pytest.raises(ValueError, match="not stable"):
            euler_char(g, n)
    assert euler_char(0, 3) == 1


def test_psi_intersection_numbers():
    assert psi_number(0, (0, 0, 0)) == 1
    assert psi_number(0, (1, 0, 0, 0)) == 1
    assert psi_number(1, (1,)) == F(1, 24)
    assert psi_number(1, (2, 0)) == F(1, 24)
    assert psi_number(1, (1, 1)) == F(1, 24)
    assert psi_number(0, (2, 0, 0, 0, 0)) == 1
    assert psi_number(0, (1, 1, 0, 0, 0)) == 2
    assert psi_number(1, (2, 1, 0)) == F(1, 12)
    assert psi_number(1, (1, 1, 1)) == F(1, 12)
    assert psi_number(2, (4,)) == F(1, 1152)


def test_psi_off_top_degree_is_zero():
    assert psi_number(0, (0, 0, 0, 0)) == 0
    assert psi_number(1, (0,)) == 0
    assert psi_number(1, (3, 0)) == 0


def test_psi_validation():
    with pytest.raises(ValueError):
        psi_number(0, (1, 0))  # unstable
    with pytest.raises(ValueError):
        psi_number(0, (-1, 1, 0))
    # truncating 1.5 to 1 would return ⟨τ_1⟩_1 = 1/24
    for bad in (1.5, F(3, 2)):
        with pytest.raises(ValueError):
            psi_number(1, (bad,))


def test_positivity_report_records_a_negative_coefficient(monkeypatch):
    real = lattice.nbar_poly

    def flipped(g, n):
        qp = real(g, n)
        return qp.scale(-1) if (g, n) == (1, 1) else qp

    monkeypatch.setattr(lattice, "nbar_poly", flipped)
    assert lattice.positivity_report() == [(1, 1, 0, (0,), F(-5, 12)), (1, 1, 0, (1,), F(-1, 48))]


def test_witten_kontsevich_closed_forms():
    # genus 0: ⟨τ_a⟩_0 = (n - 3)! / ∏ a_i!; one point: ⟨τ_{3g-2}⟩_g = 1 / (24^g g!)
    for n in range(3, 8):
        for a in itertools.product(range(n - 2), repeat=n):
            if sum(a) == n - 3:
                want = F(math.factorial(n - 3), math.prod(math.factorial(x) for x in a))
                assert checks.witten_kontsevich(0, a) == want, a
    for g in range(1, 6):
        assert checks.witten_kontsevich(g, (3 * g - 2,)) == F(1, 24 ** g * math.factorial(g))
    assert checks.witten_kontsevich(1, (1, 1)) == F(1, 24)
    assert checks.witten_kontsevich(1, (2,)) == 0
    assert memo.sizes()["checks.witten_kontsevich"] > 0
    clear_caches()
    assert memo.sizes()["checks.witten_kontsevich"] == 0


def test_clear_caches_keeps_answers_stable():
    before = nbar_eval(1, 2, (3, 1))
    clear_caches()
    assert nbar_eval(1, 2, (3, 1)) == before


def test_clear_caches_empties_every_registered_memo():
    corr = tr.tr_correlator(1, 2)
    qp = nbar_poly(0, 4)
    assert checks.resatzero_check(0, 1)
    euler_char(1, 3)
    sizes = memo.sizes()
    for name in ("lattice.values", "lattice.sums", "lattice.polys", "lattice.splits", "lattice.euler",
                 "tr.tensors", "tr.tables", "tr.pivots", "tr.xi_principal_parts", "tr.series",
                 "tr.kernel_products", "tr.two_point_diffs", "checks.xi", "checks.xi_parts", "quasipoly.tables",
                 *(f"quasipoly.{kind}_sums.{parity}" for kind in ("node", "coeff", "power")
                   for parity in ("odd", "even"))):
        assert sizes[name] > 0, name
    clear_caches()
    assert set(memo.sizes().values()) == {0}
    assert tr.tr_correlator(1, 2) == corr
    assert nbar_poly(0, 4) == qp
