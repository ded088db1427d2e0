"""Regenerate the benchmark's reference polynomials in perfbench/ref/.

Run once from the repository root:  python3 perfbench/make_refs.py

A case is written only when the combinatorial engine and the residue engine
return exactly the same polynomial, and that polynomial matches every
non-suspect row of ``nbar.golden``.  Each reference is the canonical
``qp_to_json`` text; ``ref/digests.json`` holds its SHA-256.  The files are
checked in, so a benchmark run never recomputes them.  The (0, 6) case takes
several minutes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from common import DEEP_BOXES, LADDER_CASES, REF_DIR, ROOT, case_name

sys.path.insert(0, str(ROOT / "src"))

from nbar import golden, lattice, qp_to_json  # noqa: E402


def main() -> int:
    if list(LADDER_CASES) != list(golden.EXACT_CASES):
        print("LADDER_CASES no longer matches golden.EXACT_CASES", file=sys.stderr)
        return 1
    REF_DIR.mkdir(exist_ok=True)
    digests = {}
    for g, n in sorted(set(LADDER_CASES) | set(DEEP_BOXES), key=lambda c: (2 * c[0] - 2 + c[1], c)):
        t0 = time.perf_counter()
        comb = lattice.nbar_poly(g, n, "comb")
        t1 = time.perf_counter()
        tr = lattice.nbar_poly(g, n, "tr")
        t2 = time.perf_counter()
        if comb != tr:
            print(f"({g},{n}): engines disagree; not written", file=sys.stderr)
            return 1
        rows = []
        for k, want in sorted(golden.golden_rows(g, n).items()):
            if (g, n, k) in golden.SUSPECT:
                rows.append(f"k={k} suspect, {len(golden.diff_class(comb.classes.get(k, {}), want))} diffs")
                continue
            if golden.diff_class(comb.classes.get(k, {}), want):
                print(f"({g},{n}) k={k}: differs from golden; not written", file=sys.stderr)
                return 1
            rows.append(f"k={k} matches golden")
        text = qp_to_json(comb)
        (REF_DIR / f"{case_name(g, n)}.json").write_text(text, encoding="utf-8")
        digests[case_name(g, n)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"({g},{n}): comb {t1 - t0:.2f}s tr {t2 - t1:.2f}s; comb == tr; {'; '.join(rows) or 'no golden rows'}",
              flush=True)
    (REF_DIR / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
