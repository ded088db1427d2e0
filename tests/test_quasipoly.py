"""Tests for parity-split polynomials: evaluation, JSON, tensors, fitting."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from nbar import golden, memo, quasipoly
from nbar.cache import cache_get, cache_put
from nbar.checks import stable_cases
from nbar.lattice import clear_caches, nbar_eval, nbar_poly
from nbar.quasipoly import (
    EngineError,
    QuasiPolynomial,
    _block_basis,
    _block_sums,
    _point,
    qp_fit,
    qp_from_json,
    qp_from_xi_tensor,
    qp_parse,
    qp_serialize,
    qp_to_json,
    qp_to_xi_tensor,
)
from nbar.tr import tr_tensor

F = Fraction
REFS = Path(__file__).resolve().parent.parent / "perfbench" / "ref"


def sample_qp() -> QuasiPolynomial:
    # f(b1, b2) =  (b1² + b2²)/4 + 1   if both even
    #              3·b_odd²            if exactly one odd
    #              5                   if both odd
    # one coefficient per block orbit, each block sorted ascending
    return QuasiPolynomial(
        0,
        2,
        {
            0: {(0, 1): F(1, 4), (0, 0): F(1)},
            1: {(1, 0): F(3)},
            2: {(0, 0): F(5)},
        },
    )


def test_evaluate_by_parity():
    qp = sample_qp()
    assert qp.evaluate((2, 4)) == 6
    assert qp.evaluate((3, 2)) == 27
    assert qp.evaluate((1, 1)) == 5
    assert qp.evaluate((0, 0)) == 1


def test_evaluate_is_order_invariant():
    qp = sample_qp()
    for b in [(2, 4), (3, 2), (5, 0), (1, 3), (2, 2)]:
        assert qp.evaluate(b) == qp.evaluate(b[::-1])


def expanded_value(qp: QuasiPolynomial, b) -> Fraction:
    """The value at b from every arrangement of every orbit, the odd arguments first."""
    xs = [v * v for v in b if v % 2]
    ys = [v * v for v in b if v % 2 == 0]
    k = len(xs)
    total = F(0)
    for key, c in qp.orbits.get(k, {}).items():
        for lam in set(itertools.permutations(key[:k])):
            for mu in set(itertools.permutations(key[k:])):
                total += c * prod(x ** e for x, e in zip(xs, lam)) * prod(y ** e for y, e in zip(ys, mu))
    return total


def test_evaluate_matches_the_expansion_over_permutations():
    rng = random.Random(19)
    points = []
    for g, n in stable_cases(5):
        qp = nbar_poly(g, n)
        for b in [(0,) * n] + [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(6)]:
            assert qp.evaluate(b) == expanded_value(qp, b), (g, n, b)
            points.append(b)
    # the seeded points have negative entries, and repeated ones beyond the all-zero points
    assert any(v < 0 for b in points for v in b)
    assert sum(len(set(b)) < len(b) for b in points) > len(stable_cases(5))


def test_evaluate_at_wide_points_matches_the_expanded_terms():
    # repeated entries and zeros make the removal recursion take each distinct
    # entry once with its multiplicity; brute force sums every expanded term
    qp = nbar_poly(0, 8, "tr")
    classes = qp.classes
    for k in range(9):
        for odd, even in (([1, 1, 3, 1, 5, 3, 1, 1], [0, 2, 0, 0, 4, 2, 0, 2]), ([3] * 8, [0] * 8)):
            b = tuple(odd[:k] + even[:8 - k])
            xs, ys = [v * v for v in odd[:k]], [v * v for v in even[:8 - k]]
            want = sum(
                c * prod(x ** e for x, e in zip(xs, key[:k])) * prod(y ** e for y, e in zip(ys, key[k:]))
                for key, c in classes.get(k, {}).items()
            )
            assert qp.evaluate(b) == want, b
            assert qp.evaluate(b[::-1]) == want, b
    assert set(classes) == {0, 2, 4, 6, 8}


def test_evaluate_wrong_arity():
    with pytest.raises(ValueError):
        sample_qp().evaluate((1, 2, 3))


def test_evaluate_rejects_non_integers():
    # 1.5 is neither even nor odd: counting it as odd would give a value of a wrong class
    for bad in (1.5, F(3, 2)):
        with pytest.raises(ValueError):
            sample_qp().evaluate((bad, 1))
    with pytest.raises(ValueError):
        sample_qp().evaluate((1.5, 0.5))


def test_constructor_drops_zero_terms():
    qp = QuasiPolynomial(0, 2, {0: {(1, 0): F(0)}, 1: {}})
    assert qp.classes == {}
    assert qp.is_zero


def test_equality_and_hash_include_the_genus():
    same = {0: {(0, 1): F(1)}}
    assert QuasiPolynomial(0, 2, same) != QuasiPolynomial(1, 2, same)
    assert len({QuasiPolynomial(0, 2, same), QuasiPolynomial(1, 2, same)}) == 2
    assert QuasiPolynomial(1, 2, same) == QuasiPolynomial(1, 2, dict(same))


def test_constructor_validates_keys():
    with pytest.raises(ValueError):
        QuasiPolynomial(0, 2, {3: {(0, 0): F(1)}})
    with pytest.raises(ValueError):
        QuasiPolynomial(0, 2, {0: {(0, 0, 0): F(1)}})
    # an exponent must be a non-negative int, not a power to invert or a float
    with pytest.raises(ValueError, match="not a non-negative integer"):
        QuasiPolynomial(0, 2, {0: {(-1, 0): F(1)}})
    with pytest.raises(ValueError, match="not a non-negative integer"):
        QuasiPolynomial(0, 1, {1: {(1.5,): F(1)}})
    # nor a bool, which qp_to_json would write as true and qp_from_json then refuse
    for key in [(True,), (False,)]:
        with pytest.raises(ValueError, match="not a non-negative integer"):
            QuasiPolynomial(0, 1, {1: {key: 1}})
    with pytest.raises(ValueError, match="not a non-negative integer"):
        QuasiPolynomial(0, 2, {0: {(0, True): F(1)}})


def test_constructor_keeps_fraction_coefficients_and_converts_the_rest():
    c = F(5, 12)
    qp = QuasiPolynomial(0, 2, {0: {(0, 1): c, (0, 0): 3}, 2: {(0, 0): "1/7"}})
    assert qp.orbits[0][(0, 1)] is c
    assert qp.orbits == {0: {(0, 1): F(5, 12), (0, 0): F(3)}, 2: {(0, 0): F(1, 7)}}
    assert all(type(v) is Fraction for d in qp.orbits.values() for v in d.values())


def test_constructor_and_scale_refuse_float_coefficients():
    # 0.1 would be stored as 3602879701896397/36028797018963968, not as 1/10
    for c in [0.1, 0.5, 0.0]:
        with pytest.raises(ValueError, match="is a float"):
            QuasiPolynomial(0, 1, {0: {(0,): c}})
        with pytest.raises(ValueError, match="is a float"):
            sample_qp().scale(c)
    with pytest.raises(ValueError, match="is a float"):
        QuasiPolynomial(0, 1, {}).scale(0.1)
    # a coefficient is converted before zeros are dropped, so a zero string stores nothing
    assert QuasiPolynomial(0, 1, {0: {(0,): "0"}, 1: {(0,): "0/3"}}).is_zero


def test_constructor_rejects_keys_not_sorted_within_blocks():
    with pytest.raises(ValueError, match="not sorted within its blocks"):
        QuasiPolynomial(0, 2, {0: {(1, 0): F(1)}})
    with pytest.raises(ValueError, match="not sorted within its blocks"):
        QuasiPolynomial(0, 4, {2: {(2, 1, 0, 0): F(1)}})
    # each block on its own may be in any order relative to the other
    assert QuasiPolynomial(0, 4, {2: {(1, 2, 0, 0): F(1)}}).coefficient(2, (2, 1, 0, 0)) == 1


def test_one_coefficient_per_orbit_expanded_at_the_boundary():
    qp = nbar_poly(0, 5)
    assert sum(map(len, qp.orbits.values())) == 19
    assert sum(len(cls["terms"]) for cls in qp_serialize(qp)["classes"]) == 63
    assert sum(map(len, qp.classes.values())) == 63
    for k, d in qp.classes.items():
        for key, c in d.items():
            assert qp.coefficient(k, key) == c


def test_coefficient_lookup():
    qp = sample_qp()
    assert qp.coefficient(0, (1, 0)) == F(1, 4)
    assert qp.coefficient(1, (1, 0)) == 3
    assert qp.coefficient(1, (0, 1)) == 0
    assert qp.coefficient(2, (0, 0)) == 5


def test_coefficient_checks_its_arguments():
    qp = nbar_poly(0, 4)
    assert qp.coefficient(4, (0, 0, 0, 0)) == qp.orbits[4][(0, 0, 0, 0)]
    with pytest.raises(ValueError, match="expected 4 exponents, got 3"):
        qp.coefficient(0, (0, 0, 0))
    for k in [7, 5, -1, True, 1.0]:
        with pytest.raises(ValueError, match="out of range for n=4"):
            qp.coefficient(k, (0, 0, 0, 0))
    for key in [(-1, 0, 0, 0), (0, 0.5, 0, 0), (0, 0, 1.0, 0), (True, 0, 0, 0)]:
        with pytest.raises(ValueError, match="non-negative integers"):
            qp.coefficient(0, key)


def test_subtraction_refuses_different_arities():
    with pytest.raises(ValueError, match="different arities"):
        nbar_poly(0, 3) - nbar_poly(0, 4)


def test_subtraction_and_scale():
    qp = sample_qp()
    assert (qp - qp).is_zero
    doubled = qp.scale(2)
    for b in [(2, 4), (3, 2), (1, 1)]:
        assert doubled.evaluate(b) == 2 * qp.evaluate(b)
    assert qp.scale(0).is_zero


def test_pin_even_matches_evaluation():
    qp = sample_qp()
    pinned = qp.pin_even(2)
    assert pinned.n == 1
    for v in (0, 2, 4, 1, 3, 5):
        assert pinned.evaluate((v,)) == qp.evaluate((v, 2))
    with pytest.raises(ValueError):
        qp.pin_even(3)


def test_serialize_round_trip():
    qp = sample_qp()
    data = qp_serialize(qp)
    assert data["g"] == 0 and data["n"] == 2
    assert qp_parse(data) == qp
    assert qp_from_json(qp_to_json(qp)) == qp
    # serialized form is valid JSON with string coefficients
    blob = json.loads(qp_to_json(qp))
    coeffs = [t["coeff"] for cls in blob["classes"] for t in cls["terms"]]
    assert all(isinstance(c, str) for c in coeffs)
    assert "1/4" in coeffs


def test_parse_diagnostics_name_the_position():
    good = qp_serialize(sample_qp())

    with pytest.raises(ValueError, match=r"\$: expected object"):
        qp_parse([1, 2])
    with pytest.raises(ValueError, match=r"\$: missing field 'classes'"):
        qp_parse({"g": 0, "n": 2})
    with pytest.raises(ValueError, match=r"\$\.n"):
        qp_parse({"g": 0, "n": 0, "classes": []})

    bad = json.loads(json.dumps(good))
    bad["classes"][0]["terms"][0]["coeff"] = "pi"
    with pytest.raises(ValueError, match=r"\$\.classes\[0\]\.terms\[0\]\.coeff"):
        qp_parse(bad)

    bad = json.loads(json.dumps(good))
    bad["classes"][0]["terms"][0]["exponents"] = [1]
    with pytest.raises(ValueError, match=r"exponents"):
        qp_parse(bad)

    bad = json.loads(json.dumps(good))
    bad["classes"].append(dict(bad["classes"][0]))
    with pytest.raises(ValueError, match="duplicate class"):
        qp_parse(bad)

    with pytest.raises(ValueError, match=r"\$\.classes: expected list, got dict"):
        qp_parse({**good, "classes": {}})

    bad = json.loads(json.dumps(good))
    bad["classes"][0] = [1]
    with pytest.raises(ValueError, match=r"\$\.classes\[0\]: expected object, got list"):
        qp_parse(bad)

    bad = json.loads(json.dumps(good))
    del bad["classes"][1]["terms"]
    with pytest.raises(ValueError, match=r"\$\.classes\[1\]: missing field 'odd_count' or 'terms'"):
        qp_parse(bad)

    bad = json.loads(json.dumps(good))
    bad["classes"][1]["terms"] = "3"
    with pytest.raises(ValueError, match=r"\$\.classes\[1\]\.terms: expected list, got str"):
        qp_parse(bad)

    bad = json.loads(json.dumps(good))
    del bad["classes"][2]["terms"][0]["coeff"]
    with pytest.raises(ValueError, match=r"\$\.classes\[2\]\.terms\[0\]: expected object with"):
        qp_parse(bad)

    bad = json.loads(json.dumps(good))
    bad["classes"][2]["terms"][0]["coeff"] = 5
    with pytest.raises(ValueError, match=r"\$\.classes\[2\]\.terms\[0\]\.coeff: expected rational string"):
        qp_parse(bad)

    bad = json.loads(json.dumps(good))
    bad["classes"][0]["terms"][1]["exponents"] = [0, 0]
    with pytest.raises(ValueError, match=r"\$\.classes\[0\]\.terms\[1\]\.exponents: duplicate exponent key \(0, 0\)"):
        qp_parse(bad)

    # a list-valued coefficient is refused before it is looked up among the parsed rationals
    bad = json.loads(json.dumps(good))
    bad["classes"][1]["terms"][0]["coeff"] = ["3"]
    with pytest.raises(ValueError, match=r"\$\.classes\[1\]\.terms\[0\]\.coeff: expected rational string"):
        qp_parse(bad)

    # a true exponent is refused by its path; in a term with a bad coefficient too, the exponents come first
    bad = json.loads(json.dumps(good))
    bad["classes"][0]["terms"][1]["exponents"][0] = True
    with pytest.raises(ValueError, match=r"\$\.classes\[0\]\.terms\[1\]\.exponents: expected list of 2"):
        qp_parse(bad)
    bad["classes"][0]["terms"][1]["coeff"] = ["1/4"]
    with pytest.raises(ValueError, match=r"\$\.classes\[0\]\.terms\[1\]\.exponents: expected list of 2"):
        qp_parse(bad)
    with pytest.raises(ValueError, match=r"\$\.classes\[0\]\.terms\[1\]\.exponents"):
        qp_from_json(json.dumps(bad))


def test_parse_rejects_booleans_as_integers():
    good = qp_serialize(sample_qp())
    with pytest.raises(ValueError, match=r"\$\.g: expected non-negative integer, got True"):
        qp_parse({"g": True, "n": True, "classes": []})
    with pytest.raises(ValueError, match=r"\$\.n: expected positive integer, got True"):
        qp_parse({**good, "n": True})

    bad = json.loads(json.dumps(good))
    bad["classes"][1]["odd_count"] = True
    with pytest.raises(ValueError, match=r"\$\.classes\[1\]\.odd_count: expected integer"):
        qp_parse(bad)

    bad = json.loads(json.dumps(good))
    bad["classes"][0]["terms"][0]["exponents"] = [False, True]
    with pytest.raises(ValueError, match=r"\$\.classes\[0\]\.terms\[0\]\.exponents"):
        qp_parse(bad)

    # the same objects as JSON text, where true and false are literals
    with pytest.raises(ValueError, match=r"\$\.g"):
        qp_from_json('{"g": true, "n": 1, "classes": []}')


def test_parse_rejects_a_class_that_is_not_block_symmetric():
    # b1² alone in the all-even class: its placement (0, 1) is missing
    data = {"g": 0, "n": 2, "classes": [
        {"odd_count": 2, "terms": [{"exponents": [0, 0], "coeff": "1"}]},
        {"odd_count": 0, "terms": [{"exponents": [1, 0], "coeff": "1"}]},
    ]}
    with pytest.raises(ValueError, match=r"\$\.classes\[1\]: not slot-symmetric") as caught:
        qp_parse(data)
    # the symmetry certificate's EngineError comes out as a plain ValueError with the class's path
    assert type(caught.value) is ValueError
    # both placements, with different coefficients
    data["classes"][1]["terms"].append({"exponents": [0, 1], "coeff": "2"})
    with pytest.raises(ValueError, match=r"\$\.classes\[1\]: not slot-symmetric"):
        qp_parse(data)
    data["classes"][1]["terms"][1]["coeff"] = "1"
    assert qp_parse(data) == QuasiPolynomial(0, 2, {0: {(0, 1): F(1)}, 2: {(0, 0): F(1)}})


def test_parse_rejects_a_wide_orbit_without_listing_its_placements():
    # 12 distinct exponents have 12! = 479001600 placements; one term of them is
    # rejected from the count alone, where listing them would take about 100 GiB
    term = {"exponents": list(range(12)), "coeff": "1"}
    data = {"g": 0, "n": 12, "classes": [{"odd_count": 0, "terms": [term]}]}
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"\$\.classes\[0\]: not slot-symmetric.* 1 of its 479001600 entries"):
        qp_parse(data)
    assert time.perf_counter() - start < 1.0


def test_cache_misses_an_entry_that_is_not_block_symmetric(tmp_path):
    qp = sample_qp()
    path = cache_put(tmp_path, qp, "comb")
    data = json.loads(path.read_text(encoding="utf-8"))
    data["classes"][0]["terms"] = [t for t in data["classes"][0]["terms"] if t["exponents"] != [0, 1]]
    text = json.dumps(data, indent=2)
    path.write_text(text, encoding="utf-8")
    # a valid digest of the asymmetric payload: only the symmetry certificate can reject it
    path.with_suffix(".sha256").write_text(hashlib.sha256(text.encode("utf-8")).hexdigest(), encoding="utf-8")
    with pytest.raises(ValueError, match="not slot-symmetric"):
        qp_from_json(text)
    assert cache_get(tmp_path, 0, 2, "comb") is None


def test_reference_files_round_trip_byte_for_byte():
    refs = sorted(REFS.glob("g*n*.json"))
    assert len(refs) >= 10
    for path in refs:
        text = path.read_text(encoding="utf-8")
        assert qp_to_json(qp_from_json(text)) == text, path.name


def test_to_json_writes_the_indent_2_text_of_serialize():
    hand_built = QuasiPolynomial(2, 3, {
        0: {(0, 1, 1): F(-5, 12), (0, 0, 2): F(7), (1, 1, 1): F(1, 1440)},
        1: {(2, 0, 1): F(-3)},
        3: {(0, 0, 0): F(-22, 7)},
    })
    cases = [nbar_poly(g, n) for g, n in golden.EXACT_CASES]
    cases += [qp_from_json(path.read_text(encoding="utf-8")) for path in sorted(REFS.glob("g*n*.json"))]
    # the zero polynomial, and one in no arguments, whose exponent lists are empty
    cases += [QuasiPolynomial(1, 2, {}), sample_qp().pin_even(2).pin_even(4), sample_qp(), hand_built]
    for qp in cases:
        assert qp_to_json(qp) == json.dumps(qp_serialize(qp), indent=2), qp
    assert '"classes": []' in qp_to_json(QuasiPolynomial(1, 2, {}))


def test_parse_rejects_division_by_zero_coeff():
    data = qp_serialize(sample_qp())
    data["classes"][0]["terms"][0]["coeff"] = "1/0"
    with pytest.raises(ValueError, match="not a rational"):
        qp_parse(data)


def test_xi_tensor_round_trip():
    qp = sample_qp()
    tensor = qp_to_xi_tensor(qp)
    # one key per distinct root, the spectators sorted: with two slots, each slot order
    assert tensor[((0, 1), (0, 0))] == F(1, 4)
    assert tensor[((0, 0), (0, 1))] == F(1, 4)
    assert tensor[((1, 1), (0, 0))] == 3
    assert tensor[((0, 0), (1, 1))] == 3
    assert qp_from_xi_tensor(0, 2, tensor) == qp


def test_xi_tensor_rejects_asymmetry():
    with pytest.raises(ValueError, match="not slot-symmetric"):
        qp_from_xi_tensor(0, 2, {((1, 1), (0, 0)): F(1)})
    with pytest.raises(ValueError, match="not slot-symmetric"):
        qp_from_xi_tensor(0, 2, {((0, 1), (0, 0)): F(1), ((0, 0), (0, 1)): F(2)})
    with pytest.raises(ValueError, match="wrong arity"):
        qp_from_xi_tensor(0, 3, {((0, 0), (0, 0)): F(1)})

    full = tr_tensor(0, 4)
    assert qp_from_xi_tensor(0, 4, dict(full)) == nbar_poly(0, 4)
    key = sorted(full)[len(full) // 2]
    missing = dict(full)
    del missing[key]
    with pytest.raises(ValueError, match="not slot-symmetric"):
        qp_from_xi_tensor(0, 4, missing)
    changed = dict(full)
    changed[key] += 1
    with pytest.raises(ValueError, match="not slot-symmetric"):
        qp_from_xi_tensor(0, 4, changed)
    e, o, o1 = (0, 0), (1, 0), (1, 1)
    unsorted = dict(full)
    unsorted[(o, o, e, e)] = unsorted.pop((o, e, e, o))  # the same orbit and root, spectators out of order
    with pytest.raises(ValueError, match="unsorted spectators"):
        qp_from_xi_tensor(0, 4, unsorted)
    one_root = dict(full)
    del one_root[(o1, o, o, o)]  # the orbit {o1, o, o, o} keeps only its root o
    with pytest.raises(ValueError, match="not slot-symmetric"):
        qp_from_xi_tensor(0, 4, one_root)


def test_fit_recovers_known_polynomial():
    def func(b):
        odd = sum(1 for v in b if v % 2)
        s = sum(v * v for v in b)
        return Fraction(s * s + odd)

    qp = qp_fit(func, 0, 2, degree=2)
    want = QuasiPolynomial(
        0,
        2,
        {
            0: {(1, 1): F(2), (0, 2): F(1)},
            1: {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1), (0, 0): F(1)},
            2: {(1, 1): F(2), (0, 2): F(1), (0, 0): F(2)},
        },
    )
    assert qp == want
    assert qp_fit(lambda b: int(func(b)), 0, 2, degree=2) == want  # func may return ints


def test_fit_drops_identically_zero_classes():
    def func(b):
        odd = sum(1 for v in b if v % 2)
        return Fraction(sum(v * v for v in b)) if odd == 0 else Fraction(0)

    qp = qp_fit(func, 0, 2, degree=1)
    assert set(qp.classes) == {0}


def test_fit_detects_wrong_degree_bound():
    def func(b):
        return Fraction(sum(v ** 4 for v in b))

    with pytest.raises(EngineError, match="verification"):
        qp_fit(func, 0, 2, degree=1)


def test_fit_rejects_negative_degree():
    with pytest.raises(ValueError):
        qp_fit(lambda b: Fraction(1), 0, 2)


def test_fit_degree_bounds_total_degree():
    # b1² b2² has degree 1 in each variable but total degree 2, so a fit of
    # total degree 1 must be caught by the degree + 2 certificate
    with pytest.raises(ValueError, match="verification"):
        qp_fit(lambda b: F(b[0] ** 2 * b[1] ** 2), 0, 2, degree=1)

    # so must every block-symmetric monomial of total degree 2 or 3, in any class
    for n in range(1, 4):
        for k in range(n + 1):
            for key in _block_basis(k, n - k, 3):
                if sum(key) < 2:
                    continue
                monomial = QuasiPolynomial(0, n, {k: {key: F(1)}})  # zero off class k
                with pytest.raises(ValueError, match=f"class {k} fails verification"):
                    qp_fit(monomial.evaluate, 0, n, degree=1)


def test_certificate_checks_every_node_of_degree_plus_two():
    # one wrong value at any node beyond the solve points must be caught, and
    # named: the certificate sums through the blocks, so this pins that no node
    # of degree D + 1 or D + 2 drops out of the regrouped sums
    fits = 0
    for n in range(1, 5):
        for D in range(4):
            for k in range(n + 1):
                keys = _block_basis(k, n - k, D)
                base = QuasiPolynomial(0, n, {k: {key: F(i + 1, 3) for i, key in enumerate(keys)}})
                for node in set(_block_basis(k, n - k, D + 2)) - set(keys):
                    bad = _point(node, k)
                    with pytest.raises(EngineError, match=rf"class {k} fails verification at b={re.escape(str(bad))}:"):
                        qp_fit(lambda b: base.evaluate(b) + (b == bad), 0, n, degree=D)
                    fits += 1
    assert fits == 490


def test_certificate_points_are_unisolvent_for_degree_plus_two():
    # the certificate points are never solved on, but their degree + 2 system
    # must be non-singular for every plan of a cross-checked case.  In degree
    # order the Newton basis at these nodes is lower triangular with a
    # non-zero diagonal, and the Newton basis spans the same polynomials as
    # the monomials (each ω_a is monic of degree a), so the points are unisolvent.
    plans = 0
    for g, n in stable_cases(5) + [(3, 2), (4, 1)]:
        D = 3 * g - 3 + n
        for k in range(n + 1):
            small, large = _block_basis(k, n - k, D), _block_basis(k, n - k, D + 2)
            assert len({_point(key, k) for key in large}) == len(large)
            assert set(small) <= set(large)
            ordered = sorted(large, key=lambda key: (sum(key), key))
            odd, even = _block_sums(0, 1, D + 2), _block_sums(0, 0, D + 2)

            def at(q, p):
                return odd(q[:k], p[:k]) * even(q[k:], p[k:])

            for i, p in enumerate(ordered):
                assert at(p, p) != 0, (g, n, k, p)
                assert not any(at(q, p) for q in ordered[i + 1:]), (g, n, k, p)
            plans += 1
    assert plans == 66


def test_certificate_checks_the_monomial_coefficients(monkeypatch):
    # one wrong coefficient of ω_1 leaves the Newton solve exact but spoils the
    # change of basis to monomials; the certificate reads only the powers of the
    # nodes, so it must reject the monomial coefficients that come out.  The block
    # sums are memoized across fits, so the corrupted table is read only after
    # the memos are emptied, and they are emptied again before other tests
    tables = quasipoly._omega_tables

    def off_by_one(parity, size):
        at, coeffs, powers = tables(parity, size)
        coeffs = [list(row) for row in coeffs]  # the shared table itself stays intact
        coeffs[0][1] += 1  # [t^0] ω_1 = -t_0
        return at, coeffs, powers

    clear_caches()
    monkeypatch.setattr(quasipoly, "_omega_tables", off_by_one)
    try:
        for g, n in [(0, 4), (1, 2)]:
            with pytest.raises(ValueError, match="verification"):
                qp_fit(lambda b, g=g, n=n: nbar_eval(g, n, b), g, n)
    finally:
        clear_caches()


def test_fit_never_calls_linsolve(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fit solved a dense system")

    monkeypatch.setattr(quasipoly, "linsolve", refuse)
    for g, n in [(0, 5), (1, 3)]:
        clear_caches()
        assert nbar_poly(g, n) == nbar_poly(g, n, "tr"), (g, n)


def test_shared_block_sums_do_not_depend_on_the_order_of_the_fits():
    # the fits share their block sums, so a fit must not depend on which fits
    # filled them: reverse χ order from a cold start, then forward order on the
    # sums that it left, must both give the reference bytes
    digests = json.loads((REFS / "digests.json").read_text())
    ladder = stable_cases(3)
    tables = [name for name in memo.sizes() if name.startswith("quasipoly.")]
    clear_caches()
    assert all(memo.sizes()[name] == 0 for name in tables)
    for order in (ladder[::-1], ladder):
        memo._TABLES["lattice.polys"].clear()
        for g, n in order:
            text = qp_to_json(nbar_poly(g, n))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digests[f"g{g}n{n}"], (g, n, order)
    assert all(memo.sizes()[name] > 0 for name in tables)


def test_fit_uses_few_small_points():
    calls = []

    def func(b):
        calls.append(b)
        return F(sum(v * v for v in b)) ** 3

    qp = qp_fit(func, 0, 6)
    assert qp.evaluate((2, 2, 2, 2, 2, 2)) == 24 ** 3
    assert len(calls) < 400
    assert max(max(b) for b in calls) <= 12
