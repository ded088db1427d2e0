"""Command-line interface.

Exit codes: 0 success, 1 a verification or table comparison failed,
2 usage error (argparse), 3 invalid input (``error:``) or a failed exact
certificate (``engine error:``) from any subcommand, 4 I/O error, a closed
standard output included.  Runaway work is refused with exit 3: ``eval``,
``poly`` and ``psi`` past their χ bounds unless ``--force`` is given, and
``euler`` past χ = ``EULER_BOUND`` (150), which has no ``--force``.

``main`` builds the parser once per process, on its first call, and is the one
place that turns a ``ValueError``, ``EngineError`` included, into exit 3 and a
closed standard output into exit 4.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import cache as cache_mod
from .lattice import _check_nonzero_point, _check_stable, euler_char, nbar_eval, nbar_poly, psi_number
from .quasipoly import EngineError, QuasiPolynomial, qp_to_json

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_IO = 4

# One rule for both engines: on a cache miss `poly` refuses χ above its engine's bound, and `eval` with
# an even Σ b_i refuses χ above the bound plus one, each unless --force is given.  Cold on a 2-vCPU x86
# machine, the last χ inside `poly` took 0.9-1.6 s of CPU for comb (χ = 7: (1,7)) and 6.0-7.4 s for tr
# (χ = 9: (0,11), writing a 115 MB cache entry); one χ more took 1.8-4.4 s (comb: (0,10), (2,6), (1,8))
# and, for tr even with --no-cache, 0.5-5.7 s for (5,2), (4,4), (3,6) and (2,8), and 8.6-11.2 s for the
# larger outputs ((1,10), (0,12)) when last measured, most of it rendering.  `eval` gets the χ more: comb
# fits the cases one χ below the point for its values at b = 0, and at b = (2, 0, …) a χ = 8 point took
# 0.6-1.0 s for (0,10), 1.3-2.0 s for (2,6) and 1.0-1.6 s for (1,8), while `eval 0 11 2 0 … 0` (χ = 9)
# took 1.2-2.1 s; tr renders nothing, and at b = (2, 0, …) or (1, …, 1)
# it took 1.7-3.6 s at χ = 10 ((0,12), (1,10), (3,6)) and 2.7-8.8 s at χ = 11 ((0,13), (2,9), (3,7))
POLY_BOUND = {"comb": 7, "tr": 9}
# a comb eval also refuses a point with χ² · Σ b_i above this, unless --force is given: the
# recursion's table grows with both, and (2,2) at b = (1500, 2) ran past 100 s
EVAL_BOUND = 1600
# `euler` refuses χ above this, with no --force: the recursion's table holds about (g + 1)(n + g) values,
# each a sum of up to (g + 1) n Fraction products whose size grows with n.  Cold on a 2-vCPU x86
# machine, (2,148) took 0.6-0.9 s of CPU, (1,150) 0.3-0.6 s and (0,152) 0.2-0.3 s; (2,198), at χ = 200,
# took 1.4-1.5 s, and past n ≈ 1500 the value has more digits than Python prints by default
EULER_BOUND = 150


@functools.cache
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
    p_eval.add_argument("--engine", choices=tuple(POLY_BOUND), default="comb")
    p_eval.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p_eval.add_argument(
        "--force", action="store_true",
        help=f"run past the engine's chi bound, or comb past chi^2 * sum(b) = {EVAL_BOUND}",
    )
    p_eval.set_defaults(run=cmd_eval)

    p_poly = sub.add_parser("poly", help="emit the full count polynomial")
    p_poly.add_argument("g", type=int)
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("--engine", choices=tuple(POLY_BOUND), default="comb")
    p_poly.add_argument("--format", choices=("pretty", "json", "latex", "csv"), default="pretty")
    p_poly.add_argument("--out", type=Path, help="write to this file instead of stdout")
    p_poly.add_argument("--no-cache", action="store_true", help="skip the on-disk cache")
    p_poly.add_argument("--cache-dir", type=Path, help="cache directory (default: NBAR_CACHE_DIR or ~/.cache/nbar)")
    p_poly.add_argument("--force", action="store_true", help="compute past the engine's chi bound on a cache miss")
    p_poly.set_defaults(run=cmd_poly)

    p_table = sub.add_parser("table", help="compare computed polynomials against the reference table")
    p_table.set_defaults(run=cmd_table)

    p_verify = sub.add_parser("verify", help="run identity and consistency checks")
    p_verify.add_argument(
        "what",
        choices=("euler", "desk", "string", "dilaton", "engines", "residues", "all"),
    )
    p_verify.add_argument(
        "--max-chi", type=int, default=3, help=f"bound on 2g-2+n for euler and engines, 1 to {POLY_BOUND['comb']}"
    )
    p_verify.set_defaults(run=cmd_verify)

    p_psi = sub.add_parser("psi", help="intersection number from top coefficients")
    p_psi.add_argument("g", type=int)
    p_psi.add_argument("alphas", type=int, nargs="+", help="exponents a_1 .. a_n")
    p_psi.add_argument("--force", action="store_true", help="compute past the comb engine's chi bound")
    p_psi.set_defaults(run=cmd_psi)

    p_euler = sub.add_parser("euler", help="orbifold Euler characteristic")
    p_euler.add_argument("g", type=int)
    p_euler.add_argument("n", type=int)
    p_euler.set_defaults(run=cmd_euler)

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
    classes = qp.classes
    if fmt == "csv":
        lines.append("odd_count," + ",".join(f"e{i + 1}" for i in range(qp.n)) + ",coeff")
        for k in sorted(classes):
            for key, c in sorted(classes[k].items()):
                lines.append(f"{k}," + ",".join(str(e) for e in key) + f",{c}")
        return "\n".join(lines) + "\n"
    maker = _term_latex if fmt == "latex" else _term_pretty
    joiner = " + "
    for k in sorted(classes):
        marker = "%" if fmt == "latex" else "#"
        suffix = ", odd slots first" if 0 < k < qp.n else ""
        lines.append(f"{marker} {k} odd argument(s){suffix}")
        terms = [maker(key, c) for key, c in _sorted_terms(classes[k])]
        lines.append(joiner.join(terms) if terms else "0")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[Path]) -> int:
    if out is None:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
            return EXIT_OK
        # unbuffered (PYTHONUNBUFFERED), the text layer writes straight to the file and drops a short
        # write to a pipe whose reader left; writing the bytes until all are taken raises it instead
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[buffer.write(data):]
        return EXIT_OK
    try:
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# -- subcommands ------------------------------------------------------------------------


def _refuse_past(chi: int, bound: int, force: bool, cost: str) -> None:
    """Raise unless chi is within bound or ``--force`` is given; ``cost`` says what lies past the bound."""
    if chi > bound and not force:
        raise ValueError(f"chi = {chi} exceeds {bound}, past which {cost}; pass --force")


def cmd_eval(args: argparse.Namespace) -> int:
    b = _check_nonzero_point(args.g, args.n, args.b)
    chi = 2 * args.g - 2 + args.n
    if sum(b) % 2:
        value = Fraction(0)
    else:
        _refuse_past(chi, POLY_BOUND[args.engine] + 1, args.force,
                     f"a cold eval --engine {args.engine} can take ten seconds or more")
        if args.engine == "comb" and chi * chi * sum(b) > EVAL_BOUND and not args.force:
            raise ValueError(
                f"chi^2 * sum(b) = {chi}^2 * {sum(b)} exceeds {EVAL_BOUND}, past which the comb "
                "recursion can run for minutes; --engine tr evaluates any point from the polynomial, "
                "or pass --force"
            )
        if args.engine == "comb":
            value = nbar_eval(args.g, args.n, b)
        else:
            value = nbar_poly(args.g, args.n, engine="tr").evaluate(b)
    if args.format == "json":
        print(json.dumps({
            "g": args.g, "n": args.n, "b": list(args.b),
            "engine": args.engine, "value": str(value),
        }))
    else:
        print(value)
    return EXIT_OK


def cmd_poly(args: argparse.Namespace) -> int:
    _check_stable(args.g, args.n)
    cache_dir = args.cache_dir or cache_mod.default_cache_dir()
    hit = None if args.no_cache else cache_mod.cache_get(cache_dir, args.g, args.n, args.engine)
    if hit is not None:
        # only cache_put writes an entry, and it writes qp_to_json's text: the text that passed the
        # digest check and the certifying parse is what render_poly would print for JSON
        qp, text = hit
        return _emit(text if args.format == "json" else render_poly(qp, args.format), args.out)
    _refuse_past(2 * args.g - 2 + args.n, POLY_BOUND[args.engine], args.force,
                 f"a cold --engine {args.engine} polynomial takes tens of seconds or more")
    qp = nbar_poly(args.g, args.n, engine=args.engine)
    if not args.no_cache:
        try:
            cache_mod.cache_put(cache_dir, qp, args.engine)
        except OSError as exc:
            print(f"warning: cache write failed: {exc}", file=sys.stderr)
    return _emit(render_poly(qp, args.format), args.out)


def _report(outcomes: Iterable) -> bool:
    """Print each outcome's line; whether every outcome passed."""
    ok = True
    for outcome in outcomes:
        print(outcome.line)
        ok = ok and outcome.ok
    return ok


def cmd_table(_args: argparse.Namespace) -> int:
    from . import checks

    return EXIT_OK if _report(checks.table()) else EXIT_VERIFY


def cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.max_chi <= POLY_BOUND["comb"]:
        raise ValueError(f"--max-chi must be from 1 to the comb bound {POLY_BOUND['comb']}, got {args.max_chi}")
    from . import checks

    topics = {
        "euler": lambda: checks.euler(args.max_chi),
        "desk": checks.desk,
        "string": checks.string,
        "dilaton": checks.dilaton,
        "engines": lambda: checks.engines(args.max_chi),
        "residues": checks.residues,
    }
    ok = _report(o for name, run in topics.items() if args.what in (name, "all") for o in run())
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_psi(args: argparse.Namespace) -> int:
    # psi reads the comb polynomial of (g, n), so it refuses past that engine's poly bound
    _refuse_past(2 * args.g - 2 + len(args.alphas), POLY_BOUND["comb"], args.force,
                 "the comb polynomial that psi reads takes tens of seconds or more")
    print(psi_number(args.g, args.alphas))
    return EXIT_OK


def cmd_euler(args: argparse.Namespace) -> int:
    _check_stable(args.g, args.n)
    chi = 2 * args.g - 2 + args.n
    if chi > EULER_BOUND:
        raise ValueError(f"chi = {chi} exceeds {EULER_BOUND}, past which a cold euler takes more than a second")
    print(euler_char(args.g, args.n))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (``nbar table | head``): the flush at exit then writes to os.devnull
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"{'engine error' if isinstance(exc, EngineError) else 'error'}: {exc}", file=sys.stderr)
    return EXIT_INVALID
