"""Names and paths shared by the benchmark's runner (run.py), worker and tools."""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REF_DIR = BENCH_DIR / "ref"

# golden.EXACT_CASES when the references were made: every stable case with
# chi <= 3, in chi order.  Kept here so the ladders do not move if the table does.
LADDER_CASES = ((0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1))
# eval_deep: (lo, hi) per case.  A pass sweeps every sorted point of the box
# lo..hi (sum even), then evaluates every point of the shell around it, each
# b_i in lo..hi + DEEP_SHELL with at least one above hi, in a seeded
# permutation.  The sweep fills the memo, so each shell point runs the
# recursion on a warm memo.  The cases are chi <= 4 without the closed-form
# (0,3) and (1,1), and without (3,1), whose every point needs the (2,2) fit at
# b = 0.  Positive b keeps the fit out apart from the cheap (g, 1)
# continuations at b = 0.
DEEP_BOXES = {
    (0, 4): (7, 11), (1, 2): (7, 12), (2, 1): (10, 16), (1, 3): (7, 10),
    (0, 5): (5, 7), (2, 2): (7, 10), (1, 4): (4, 6), (0, 6): (3, 5),
}
DEEP_SHELL = 2


def case_name(g: int, n: int) -> str:
    return f"g{g}n{n}"
