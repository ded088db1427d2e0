"""Frozen reference expansions of the small count polynomials.

These are the published closed forms for the first few (g, n), split by the
number k of odd arguments (which by symmetry may be taken to be the first k
slots).  They are stored as fully expanded coefficient dictionaries in the
same layout as the expanded view :attr:`~nbar.quasipoly.QuasiPolynomial.classes`,
so the table command can compare computed output against them coefficient
by coefficient.

One row is transcribed exactly as published but is known to be internally
inconsistent (its top coefficients disagree with every recursion and with
the intersection-number anchors), so it is flagged as suspect: the table
command reports differences against it instead of failing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .quasipoly import ClassDict, ExpKey

F = Fraction


def _add(d: ClassDict, key: Iterable[int], c: Fraction) -> None:
    k = tuple(key)
    d[k] = d.get(k, F(0)) + c


def _powers_each(d: ClassDict, n: int, p: int, c: Fraction) -> None:
    """Σ_i b_i^{2p} with the given coefficient."""
    for i in range(n):
        key = [0] * n
        key[i] = p
        _add(d, key, c)


def _powers_slots(d: ClassDict, n: int, slots: Iterable[int], p: int, c: Fraction) -> None:
    """Σ over the listed slots of b_i^{2p}."""
    for i in slots:
        key = [0] * n
        key[i] = p
        _add(d, key, c)


def _pairs_unordered(d: ClassDict, n: int, c: Fraction) -> None:
    """Σ_{i<j} b_i² b_j²."""
    for i, j in itertools.combinations(range(n), 2):
        key = [0] * n
        key[i] = 1
        key[j] = 1
        _add(d, key, c)


def _pairs_ordered(d: ClassDict, n: int, p: int, q: int, c: Fraction) -> None:
    """Σ_{i≠j} b_i^{2p} b_j^{2q} over ordered pairs."""
    for i, j in itertools.permutations(range(n), 2):
        key = [0] * n
        key[i] = p
        key[j] = q
        _add(d, key, c)


def _triples(d: ClassDict, n: int, c: Fraction) -> None:
    """Σ_{i<j<k} b_i² b_j² b_k²."""
    for i, j, k in itertools.combinations(range(n), 3):
        key = [0] * n
        key[i] = 1
        key[j] = 1
        key[k] = 1
        _add(d, key, c)


def _const(d: ClassDict, n: int, c: Fraction) -> None:
    _add(d, (0,) * n, c)


def _row_0_3_0() -> ClassDict:
    d: ClassDict = {}
    _const(d, 3, F(1))
    return d


def _row_0_3_2() -> ClassDict:
    d: ClassDict = {}
    _const(d, 3, F(1))
    return d


def _row_1_1_0() -> ClassDict:
    d: ClassDict = {}
    _powers_each(d, 1, 1, F(1, 48))
    _const(d, 1, F(20, 48))
    return d


def _row_0_4(extra: Fraction) -> ClassDict:
    d: ClassDict = {}
    _powers_each(d, 4, 1, F(1, 4))
    _const(d, 4, extra / 4)
    return d


def _row_1_2(const: Fraction) -> ClassDict:
    d: ClassDict = {}
    _powers_each(d, 2, 2, F(1, 384))
    _add(d, (1, 1), F(2, 384))
    _powers_each(d, 2, 1, F(36, 384))
    _const(d, 2, const / 384)
    return d


def _row_0_5_0() -> ClassDict:
    d: ClassDict = {}
    _powers_each(d, 5, 2, F(1, 32))
    _pairs_unordered(d, 5, F(1, 8))
    _powers_each(d, 5, 1, F(7, 8))
    _const(d, 5, F(7))
    return d


def _row_0_5_2() -> ClassDict:
    d: ClassDict = {}
    _powers_each(d, 5, 2, F(1, 32))
    _pairs_unordered(d, 5, F(1, 8))
    _powers_slots(d, 5, (0, 1), 1, F(5, 16))
    _powers_slots(d, 5, (2, 3, 4), 1, F(1, 8))
    _const(d, 5, F(19, 16))
    return d


def _row_0_5_4() -> ClassDict:
    d: ClassDict = {}
    _powers_each(d, 5, 2, F(1, 32))
    _pairs_unordered(d, 5, F(1, 8))
    _powers_slots(d, 5, (0, 1, 2, 3), 1, F(5, 16))
    _powers_slots(d, 5, (4,), 1, F(7, 8))
    _const(d, 5, F(7, 8))
    return d


def _row_1_3_0() -> ClassDict:
    d: ClassDict = {}
    _powers_each(d, 3, 3, F(1, 4608))
    _pairs_ordered(d, 3, 2, 1, F(1, 768))
    _triples(d, 3, F(1, 384))
    _powers_each(d, 3, 2, F(13, 1152))
    _pairs_unordered(d, 3, F(1, 24))
    _powers_each(d, 3, 1, F(29, 144))
    _const(d, 3, F(17, 12))
    return d


def _row_1_3_2() -> ClassDict:
    d: ClassDict = {}
    _powers_each(d, 3, 3, F(1, 4608))
    _pairs_ordered(d, 3, 2, 1, F(1, 768))
    _triples(d, 3, F(1, 384))
    _powers_each(d, 3, 2, F(43, 4608))
    _pairs_unordered(d, 3, F(1, 24))
    _powers_each(d, 3, 1, F(277, 4608))
    _powers_slots(d, 3, (2,), 2, F(1, 512))
    _powers_slots(d, 3, (2,), 1, F(1, 1536))
    _const(d, 3, F(81, 256))
    return d


def _row_2_1_0() -> ClassDict:
    d: ClassDict = {}
    _add(d, (4,), F(1, 1769472))
    _add(d, (3,), F(3, 40960))
    _add(d, (2,), F(133, 61440))
    _add(d, (1,), F(1087, 34560))
    _const(d, 1, F(247, 1440))
    return d


def _row_0_6_0() -> ClassDict:
    # transcribed literally from the published table; see SUSPECT below
    d: ClassDict = {}
    _powers_each(d, 6, 3, F(1, 384))
    _pairs_ordered(d, 6, 2, 1, F(3, 28))
    _triples(d, 6, F(3, 32))
    _powers_each(d, 6, 2, F(1, 6))
    _pairs_unordered(d, 6, F(9, 6))
    _powers_each(d, 6, 1, F(109, 24))
    _const(d, 6, F(34))
    return d


_ROWS = {
    (0, 3, 0): _row_0_3_0,
    (0, 3, 2): _row_0_3_2,
    (1, 1, 0): _row_1_1_0,
    (0, 4, 0): lambda: _row_0_4(F(8)),
    (0, 4, 2): lambda: _row_0_4(F(2)),
    (0, 4, 4): lambda: _row_0_4(F(8)),
    (1, 2, 0): lambda: _row_1_2(F(192)),
    (1, 2, 2): lambda: _row_1_2(F(84)),
    (0, 5, 0): _row_0_5_0,
    (0, 5, 2): _row_0_5_2,
    (0, 5, 4): _row_0_5_4,
    (1, 3, 0): _row_1_3_0,
    (1, 3, 2): _row_1_3_2,
    (2, 1, 0): _row_2_1_0,
    (0, 6, 0): _row_0_6_0,
}

# rows whose published form is internally inconsistent; they are reported
# as differences, never as hard failures
SUSPECT = {(0, 6, 0)}

# the exactly checkable cases, in presentation order
EXACT_CASES: List[Tuple[int, int]] = [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1)]
SUSPECT_CASES: List[Tuple[int, int]] = [(0, 6)]


def golden_class(g: int, n: int, k: int) -> ClassDict:
    """The reference coefficient dictionary for parity class k of (g, n)."""
    try:
        build = _ROWS[(g, n, k)]
    except KeyError:
        raise KeyError(f"no reference row for (g, n, k) = ({g}, {n}, {k})") from None
    return build()


def golden_rows(g: int, n: int) -> Dict[int, ClassDict]:
    """All reference classes available for (g, n), keyed by odd count."""
    out = {}
    for (gg, nn, k) in _ROWS:
        if (gg, nn) == (g, n):
            out[k] = golden_class(g, n, k)
    return out


def diff_class(got: ClassDict, want: ClassDict) -> List[Tuple[ExpKey, Fraction, Fraction]]:
    """Sorted list of (key, got, want) where two class dictionaries differ."""
    out = []
    for key in sorted(set(got) | set(want)):
        a = got.get(key, F(0))
        b = want.get(key, F(0))
        if a != b:
            out.append((key, a, b))
    return out
