"""Command-line interface.

Exit codes: 0 success, 1 a verification or table comparison failed,
2 usage error (argparse), 3 invalid input or engine failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import cache as cache_mod
from . import golden
from .lattice import (
    euler_char,
    is_stable,
    nbar_eval,
    nbar_eval_asym,
    nbar_poly,
    positivity_report,
    psi_number,
)
from .quasipoly import QuasiPolynomial, qp_to_json

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbar",
        description="Exact lattice point counts of compactified moduli spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a single count")
    p_eval.add_argument("g", type=int)
    p_eval.add_argument("n", type=int)
    p_eval.add_argument("b", type=int, nargs="+", help="boundary parameters b_1 .. b_n")
    p_eval.add_argument("--engine", choices=("comb", "comb-asym", "tr"), default="comb")
    p_eval.add_argument("--format", choices=("pretty", "json"), default="pretty")

    p_poly = sub.add_parser("poly", help="emit the full count polynomial")
    p_poly.add_argument("g", type=int)
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("--engine", choices=("comb", "comb-asym", "tr"), default="comb")
    p_poly.add_argument("--format", choices=("pretty", "json", "latex", "csv"), default="pretty")
    p_poly.add_argument("--out", type=Path, help="write to this file instead of stdout")
    p_poly.add_argument("--no-cache", action="store_true", help="skip the on-disk cache")
    p_poly.add_argument("--cache-dir", type=Path, help="cache directory (default: NBAR_CACHE_DIR or ~/.cache/nbar)")

    p_table = sub.add_parser("table", help="compare computed polynomials against the reference table")

    p_verify = sub.add_parser("verify", help="run identity and consistency checks")
    p_verify.add_argument(
        "what",
        choices=("euler", "desk", "string", "dilaton", "engines", "residues", "all"),
    )
    p_verify.add_argument("--max-chi", type=int, default=3, help="complexity bound 2g-2+n for euler checks")

    p_psi = sub.add_parser("psi", help="intersection number from top coefficients")
    p_psi.add_argument("g", type=int)
    p_psi.add_argument("alphas", type=int, nargs="+", help="exponents a_1 .. a_n")

    p_euler = sub.add_parser("euler", help="orbifold Euler characteristic")
    p_euler.add_argument("g", type=int)
    p_euler.add_argument("n", type=int)

    return parser


# -- rendering -------------------------------------------------------------------------


def _term_pretty(key: Sequence[int], c: Fraction) -> str:
    factors = [f"b{i + 1}^{2 * e}" for i, e in enumerate(key) if e]
    head = str(c)
    return head if not factors else head + " " + " ".join(factors)


def _term_latex(key: Sequence[int], c: Fraction) -> str:
    if c.denominator == 1:
        head = str(c.numerator)
    else:
        sign = "-" if c < 0 else ""
        head = f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    factors = [f"b_{{{i + 1}}}^{{{2 * e}}}" for i, e in enumerate(key) if e]
    return head if not factors else head + " " + " ".join(factors)


def _sorted_terms(d: Dict[Tuple[int, ...], Fraction]):
    return sorted(d.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))


def render_poly(qp: QuasiPolynomial, fmt: str) -> str:
    if fmt == "json":
        return qp_to_json(qp)
    lines: List[str] = []
    if fmt == "csv":
        lines.append("odd_count," + ",".join(f"e{i + 1}" for i in range(qp.n)) + ",coeff")
        for k in sorted(qp.classes):
            for key, c in sorted(qp.classes[k].items()):
                lines.append(f"{k}," + ",".join(str(e) for e in key) + f",{c}")
        return "\n".join(lines) + "\n"
    maker = _term_latex if fmt == "latex" else _term_pretty
    joiner = " + "
    for k in sorted(qp.classes):
        marker = "%" if fmt == "latex" else "#"
        suffix = ", odd slots first" if 0 < k < qp.n else ""
        lines.append(f"{marker} {k} odd argument(s){suffix}")
        terms = [maker(key, c) for key, c in _sorted_terms(qp.classes[k])]
        lines.append(joiner.join(terms) if terms else "0")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[Path]) -> int:
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# -- subcommands ------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        if not is_stable(args.g, args.n):
            raise ValueError(f"(g, n) = ({args.g}, {args.n}) is not stable")
        if len(args.b) == args.n and not any(args.b):
            raise ValueError(
                "the value at b = 0 is defined by polynomial continuation; "
                "use the poly command and evaluate at zero"
            )
        if args.engine == "comb":
            value = nbar_eval(args.g, args.n, args.b)
        elif args.engine == "comb-asym":
            value = nbar_eval_asym(args.g, args.n, args.b)
        else:
            if len(args.b) != args.n:
                raise ValueError(f"expected {args.n} boundary parameters, got {len(args.b)}")
            if any(v < 0 for v in args.b):
                raise ValueError("boundary parameters must be non-negative integers")
            value = nbar_poly(args.g, args.n, engine="tr").evaluate(args.b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.format == "json":
        print(json.dumps({
            "g": args.g, "n": args.n, "b": list(args.b),
            "engine": args.engine, "value": str(value),
        }))
    else:
        print(value)
    return EXIT_OK


def cmd_poly(args: argparse.Namespace) -> int:
    try:
        if not is_stable(args.g, args.n):
            raise ValueError(f"(g, n) = ({args.g}, {args.n}) is not stable")
        qp = None
        cache_dir = args.cache_dir or cache_mod.default_cache_dir()
        if not args.no_cache:
            qp = cache_mod.cache_get(cache_dir, args.g, args.n, args.engine)
        if qp is None:
            qp = nbar_poly(args.g, args.n, engine=args.engine)
            if not args.no_cache:
                try:
                    cache_mod.cache_put(cache_dir, qp, args.engine)
                except OSError as exc:
                    print(f"warning: cache write failed: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return _emit(render_poly(qp, args.format), args.out)


def cmd_table(_args: argparse.Namespace) -> int:
    failed = False
    for g, n in golden.EXACT_CASES:
        qp = nbar_poly(g, n)
        want = golden.golden_rows(g, n)
        extra = sorted(set(qp.classes) - set(want))
        if extra:
            failed = True
            print(f"({g},{n}): FAIL unexpected parity classes {extra}")
        for k in sorted(want):
            got_class = qp.classes.get(k, {})
            diffs = golden.diff_class(got_class, want[k])
            if diffs:
                failed = True
                print(f"({g},{n}) k={k}: FAIL {len(diffs)} coefficient(s) differ")
                for key, a, b in diffs:
                    print(f"    {key}: computed {a}, reference {b}")
            else:
                print(f"({g},{n}) k={k}: ok ({len(want[k])} coefficients)")
    for g, n in golden.SUSPECT_CASES:
        qp = nbar_poly(g, n)
        for k, want_class in sorted(golden.golden_rows(g, n).items()):
            got_class = qp.classes.get(k, {})
            diffs = golden.diff_class(got_class, want_class)
            tag = "suspect row" if (g, n, k) in golden.SUSPECT else "row"
            if diffs:
                print(f"({g},{n}) k={k}: {tag} differs in {len(diffs)} coefficient(s) (report only)")
                for key, a, b in diffs:
                    print(f"    {key}: computed {a}, published {b}")
            else:
                print(f"({g},{n}) k={k}: {tag} matches")
    report = positivity_report()
    if report:
        print(f"note: {len(report)} negative stored coefficient(s) found:")
        for g, n, k, key, c in report:
            print(f"    ({g},{n}) k={k} {key}: {c}")
    else:
        print("all stored coefficients non-negative over the table range")
    return EXIT_VERIFY if failed else EXIT_OK


def _euler_cases(max_chi: int) -> List[Tuple[int, int]]:
    cases = []
    for chi in range(1, max_chi + 1):
        g = 0
        while True:
            n = chi + 2 - 2 * g
            if n < 1:
                break
            if is_stable(g, n):
                cases.append((g, n))
            g += 1
    return cases


def cmd_verify(args: argparse.Namespace) -> int:
    what = args.what
    ok = True
    if what in ("euler", "all"):
        for g, n in _euler_cases(args.max_chi):
            try:
                chi = euler_char(g, n)
            except ValueError as exc:
                print(f"euler ({g},{n}): unavailable ({exc})")
                continue
            zero = nbar_poly(g, n).evaluate((0,) * n)
            good = chi == zero
            ok = ok and good
            status = "ok" if good else f"FAIL (count polynomial gives {zero})"
            print(f"euler ({g},{n}): {chi} {status}")
    if what in ("desk", "string", "dilaton", "engines", "residues", "all"):
        from . import tr

        if what in ("desk", "all"):
            want11 = _closed_form_11()
            good = tr.correlator_rf_1pt(1) == want11
            ok = ok and good
            print(f"desk (1,1): {'ok' if good else 'FAIL'}")
            good = _desk_03(tr)
            ok = ok and good
            print(f"desk (0,3): {'ok' if good else 'FAIL'}")
        if what in ("string", "all"):
            for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
                good = tr.string_check(g, n)
                ok = ok and good
                print(f"string ({g},{n}): {'ok' if good else 'FAIL'}")
        if what in ("dilaton", "all"):
            for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
                good = tr.dilaton_check(g, n)
                ok = ok and good
                print(f"dilaton ({g},{n}): {'ok' if good else 'FAIL'}")
        if what in ("engines", "all"):
            for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
                good = tr.tr_correlator(g, n) == nbar_poly(g, n)
                ok = ok and good
                print(f"engines ({g},{n}) residue vs recursion: {'ok' if good else 'FAIL'}")
            for g, n, bs in [(0, 4, (4, 2, 0, 2)), (1, 2, (3, 5)), (1, 2, (6, 2))]:
                good = nbar_eval_asym(g, n, bs) == nbar_eval(g, n, bs)
                ok = ok and good
                print(f"engines ({g},{n}) asymmetric at b={bs}: {'ok' if good else 'FAIL'}")
        if what in ("residues", "all"):
            for k in range(6):
                for parity in (0, 1):
                    good = tr.resatzero_check(parity, k)
                    ok = ok and good
                    print(f"residues parity={parity} k={k}: {'ok' if good else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _closed_form_11():
    from .exact import Poly, RationalFunction

    return RationalFunction(
        Poly([5, 0, -8, 0, 18, 0, -8, 0, 5]),
        Poly([0, 12]) * Poly([-1, 0, 1]) ** 4,
    )


def _desk_03(tr) -> bool:
    tensor = tr.tr_tensor(0, 3)

    def engine(*zs: Fraction) -> Fraction:
        return tr.tensor_value_at(tensor, zs)

    def printed(*zs: Fraction) -> Fraction:
        prod_minus = Fraction(1)
        prod_plus = Fraction(1)
        for z in zs:
            prod_minus *= (z * z - z + 1) / (z - 1) ** 2
            prod_plus *= (z * z + z + 1) / (z + 1) ** 2
        denom = 2 * zs[0] * zs[1] * zs[2]
        return (prod_minus + prod_plus) / denom

    return tr.grid_equal(engine, printed, 3, 8)


def cmd_psi(args: argparse.Namespace) -> int:
    try:
        value = psi_number(args.g, args.alphas)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(value)
    return EXIT_OK


def cmd_euler(args: argparse.Namespace) -> int:
    try:
        value = euler_char(args.g, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(value)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": cmd_eval,
        "poly": cmd_poly,
        "table": cmd_table,
        "verify": cmd_verify,
        "psi": cmd_psi,
        "euler": cmd_euler,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # engine failures should not show a traceback to users
        from .tr import EngineError

        if isinstance(exc, EngineError):
            print(f"engine error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        raise


if __name__ == "__main__":
    sys.exit(main())
