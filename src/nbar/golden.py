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
from typing import Dict, List, Sequence, Tuple

from .quasipoly import ClassDict, ExpKey

F = Fraction


def _sym(d: ClassDict, n: int, exps: Sequence[int], c: Fraction, slots: Sequence[int] = ()) -> None:
    """Add c at every distinct placement of the exponent multiset ``exps`` on ``slots``.

    ``slots`` defaults to all n, so ``_sym(d, n, (p,), c)`` is c Σ_i b_i^{2p},
    ``(1, 1)`` is Σ_{i<j} b_i² b_j², ``(2, 1)`` is Σ_{i≠j} b_i⁴ b_j² and ``()``
    the constant term.  Coefficients accumulate on keys already present.
    """
    keys = set()
    for placed in itertools.permutations(slots or range(n), len(exps)):
        at = dict(zip(placed, exps))
        keys.add(tuple(at.get(i, 0) for i in range(n)))
    for key in keys:
        d[key] = d.get(key, F(0)) + c


def _row_0_3() -> ClassDict:
    d: ClassDict = {}
    _sym(d, 3, (), F(1))
    return d


def _row_1_1_0() -> ClassDict:
    d: ClassDict = {}
    _sym(d, 1, (1,), F(1, 48))
    _sym(d, 1, (), F(20, 48))
    return d


def _row_0_4(extra: Fraction) -> ClassDict:
    d: ClassDict = {}
    _sym(d, 4, (1,), F(1, 4))
    _sym(d, 4, (), extra / 4)
    return d


def _row_1_2(const: Fraction) -> ClassDict:
    d: ClassDict = {}
    _sym(d, 2, (2,), F(1, 384))
    _sym(d, 2, (1, 1), F(2, 384))
    _sym(d, 2, (1,), F(36, 384))
    _sym(d, 2, (), const / 384)
    return d


def _row_0_5_0() -> ClassDict:
    d: ClassDict = {}
    _sym(d, 5, (2,), F(1, 32))
    _sym(d, 5, (1, 1), F(1, 8))
    _sym(d, 5, (1,), F(7, 8))
    _sym(d, 5, (), F(7))
    return d


def _row_0_5_2() -> ClassDict:
    d: ClassDict = {}
    _sym(d, 5, (2,), F(1, 32))
    _sym(d, 5, (1, 1), F(1, 8))
    _sym(d, 5, (1,), F(5, 16), slots=(0, 1))
    _sym(d, 5, (1,), F(1, 8), slots=(2, 3, 4))
    _sym(d, 5, (), F(19, 16))
    return d


def _row_0_5_4() -> ClassDict:
    d: ClassDict = {}
    _sym(d, 5, (2,), F(1, 32))
    _sym(d, 5, (1, 1), F(1, 8))
    _sym(d, 5, (1,), F(5, 16), slots=(0, 1, 2, 3))
    _sym(d, 5, (1,), F(7, 8), slots=(4,))
    _sym(d, 5, (), F(7, 8))
    return d


def _row_1_3_0() -> ClassDict:
    d: ClassDict = {}
    _sym(d, 3, (3,), F(1, 4608))
    _sym(d, 3, (2, 1), F(1, 768))
    _sym(d, 3, (1, 1, 1), F(1, 384))
    _sym(d, 3, (2,), F(13, 1152))
    _sym(d, 3, (1, 1), F(1, 24))
    _sym(d, 3, (1,), F(29, 144))
    _sym(d, 3, (), F(17, 12))
    return d


def _row_1_3_2() -> ClassDict:
    d: ClassDict = {}
    _sym(d, 3, (3,), F(1, 4608))
    _sym(d, 3, (2, 1), F(1, 768))
    _sym(d, 3, (1, 1, 1), F(1, 384))
    _sym(d, 3, (2,), F(43, 4608))
    _sym(d, 3, (1, 1), F(1, 24))
    _sym(d, 3, (1,), F(277, 4608))
    _sym(d, 3, (2,), F(1, 512), slots=(2,))
    _sym(d, 3, (1,), F(1, 1536), slots=(2,))
    _sym(d, 3, (), F(81, 256))
    return d


def _row_2_1_0() -> ClassDict:
    d: ClassDict = {}
    _sym(d, 1, (4,), F(1, 1769472))
    _sym(d, 1, (3,), F(3, 40960))
    _sym(d, 1, (2,), F(133, 61440))
    _sym(d, 1, (1,), F(1087, 34560))
    _sym(d, 1, (), F(247, 1440))
    return d


def _row_0_6_0() -> ClassDict:
    # transcribed literally from the published table; see SUSPECT below
    d: ClassDict = {}
    _sym(d, 6, (3,), F(1, 384))
    _sym(d, 6, (2, 1), F(3, 28))
    _sym(d, 6, (1, 1, 1), F(3, 32))
    _sym(d, 6, (2,), F(1, 6))
    _sym(d, 6, (1, 1), F(9, 6))
    _sym(d, 6, (1,), F(109, 24))
    _sym(d, 6, (), F(34))
    return d


_ROWS = {
    (0, 3, 0): _row_0_3,
    (0, 3, 2): _row_0_3,
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


def golden_rows(g: int, n: int) -> Dict[int, ClassDict]:
    """All reference classes available for (g, n), keyed by odd count."""
    return {k: build() for (gg, nn, k), build in _ROWS.items() if (gg, nn) == (g, n)}


def diff_class(got: ClassDict, want: ClassDict) -> List[Tuple[ExpKey, Fraction, Fraction]]:
    """Sorted list of (key, got, want) where two class dictionaries differ."""
    out = []
    for key in sorted(set(got) | set(want)):
        a = got.get(key, F(0))
        b = want.get(key, F(0))
        if a != b:
            out.append((key, a, b))
    return out
