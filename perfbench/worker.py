"""One pass of one benchmark workload, in a fresh interpreter so every memo starts cold.

``run.py`` starts this file once per pass; it is not meant to be run by hand.
The pass sets up (imports the package from ``src/``, loads and checks the
reference files, generates its inputs from the seed), reports when it is
ready, runs its operations in a closed loop, then checks every result
against the references.  The last line of standard output is a JSON object
with the set-up time, the op times, the outcomes and the process's peak RSS.
Times are in reference seconds (see speed.py); the raw wall time of the
timed phase comes along for the record.

``lattice.clear_caches()`` is never called: it leaves the residue engine's
memos (``tr._ENGINE``, ``_DECOMP_MEMO``, the ``xi`` lru_cache) warm, so a
fresh interpreter is the only way to start cold.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import resource
import sys
import time
from pathlib import Path

from common import DEEP_BOXES, DEEP_SHELL, LADDER_CASES, REF_DIR, ROOT, case_name
from speed import SpeedProbe, clock

WORKLOADS = ("comb_ladder", "tr_ladder", "eval_deep", "cache_cli")

# cache_cli: per round, every (case, engine) entry is read four times and written once;
# 29 rounds make a pass of 2030 ops, so its tail is about the 99.5th percentile
CLI_ROUNDS = {"full": 29, "tiny": 1}
CLI_ENGINES = ("comb", "tr")


def load_refs():
    """Reference JSON texts by case name, each checked against its stored digest.

    A reference whose text does not match its digest is left out, so every
    operation that needs it fails its check instead of passing silently.
    """
    digests = json.loads((REF_DIR / "digests.json").read_text(encoding="utf-8"))
    texts = {}
    for name, digest in digests.items():
        text = (REF_DIR / f"{name}.json").read_text(encoding="utf-8")
        if hashlib.sha256(text.encode("utf-8")).hexdigest() == digest:
            texts[name] = text
        else:
            print(f"reference {name} does not match its digest", file=sys.stderr)
    return digests, texts


def deep_points(rng: random.Random, size: str):
    """Every sorted point of each case's box, then every point of its shell in a seeded permutation.

    The sweep fills the memo the same way for every seed.  Each shell point
    lies outside its box, so it runs the recursion on that warm memo.  The
    points come in a fixed order, so each one finds the same memo whatever
    the seed; the seed permutes each shell point, which picks the root of
    the asymmetric recursion.
    """
    sweep, shell = [], []
    for (g, n), (lo, hi) in DEEP_BOXES.items():
        if size == "tiny":
            lo, hi = 1, 2
        for b in itertools.combinations_with_replacement(range(lo, hi + DEEP_SHELL + 1), n):
            if sum(b) % 2 == 0:
                if b[-1] <= hi:
                    sweep.append((g, n, b))
                else:
                    b = list(b)
                    rng.shuffle(b)
                    shell.append((g, n, tuple(b)))
    return sweep + shell


def cli_ops(rng: random.Random, size: str):
    ops = []
    for _ in range(CLI_ROUNDS[size]):
        for g, n in LADDER_CASES:
            for engine in CLI_ENGINES:
                ops += [("read", g, n, engine)] * 4 + [("write", g, n, engine)]
    rng.shuffle(ops)
    return ops


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--cache-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import nbar
    from nbar import cache, cli, lattice, quasipoly

    if not Path(nbar.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported nbar from {nbar.__file__}, not from this checkout", file=sys.stderr)
        return 2

    digests, texts = load_refs()
    refs = {name: quasipoly.qp_from_json(text) for name, text in texts.items()}
    rng = random.Random(f"{args.workload}/{args.seed}")
    w = args.workload

    # -- inputs, and one closure per operation --------------------------------------------
    if w in ("comb_ladder", "tr_ladder"):
        engine = w.split("_")[0]
        inputs = list(LADDER_CASES) if args.size == "full" else list(LADDER_CASES[:4])

        def op(case):
            return lattice.nbar_poly(case[0], case[1], engine)

    elif w == "eval_deep":
        inputs = deep_points(rng, args.size)

        def op(point):
            g, n, b = point
            return lattice.nbar_eval(g, n, b), lattice.nbar_eval_asym(g, n, b)

    else:
        inputs = cli_ops(rng, args.size)
        cache_dir = str(args.cache_dir)
        for g, n in LADDER_CASES:
            for engine in CLI_ENGINES:
                if case_name(g, n) in refs:
                    cache.cache_put(args.cache_dir, refs[case_name(g, n)], engine)

        def op(item):
            kind, g, n, engine = item
            if kind == "write":
                return cache.cache_put(args.cache_dir, refs[case_name(g, n)], engine)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["poly", str(g), str(n), "--engine", engine, "--format", "json",
                                 "--cache-dir", cache_dir])
            return code, buf.getvalue()

    ready = clock()  # CPU time since the interpreter started
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": probe.ref_seconds(0.0, ready)}))
        return 0

    # -- timed phase: closed loop, one operation after another -----------------------------
    tracer = None
    if args.trace_out is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    intervals, results, errors = [], [], []
    wall_start = time.perf_counter()
    start = clock()
    for item in inputs:
        t0 = clock()
        try:
            out = op(item)
        except Exception as exc:  # counted as a failed operation
            out = exc
        intervals.append((t0, clock()))
        if w == "cache_cli" and not isinstance(out, Exception) and item[0] == "read":
            code, text = out  # reduce a read to its verdict now, to keep outputs out of memory
            out = code == 0 and text == texts.get(case_name(item[1], item[2]))
        results.append(out)
    end = clock()
    wall_raw = time.perf_counter() - wall_start
    if tracer is not None:
        tracer.uninstall()
    probe.stop()

    # -- checks, outside the timed phase ----------------------------------------------------
    failed = 0
    for item, out in zip(inputs, results):
        why = check(w, item, out, digests, texts, refs, quasipoly)
        if why:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{item}: {why}")
    for line in errors:
        print(f"failed: {line}", file=sys.stderr)

    if tracer is not None:
        args.trace_out.write_text(json.dumps(dict(tracer.dump(), probe=[probe.starts, probe.costs])),
                                  encoding="utf-8")
    wall = probe.ref_seconds(start, end)
    if w in ("comb_ladder", "tr_ladder"):
        # the whole ladder is one operation: every case reuses the memos of the cases before it
        intervals = [(start, end)]
    print(json.dumps(dict(
        setup_s=probe.ref_seconds(0.0, ready),
        wall_raw_s=wall_raw,
        wall_s=wall,
        durations=[probe.ref_seconds(t0, t1) for t0, t1 in intervals],
        attempted=len(inputs),
        failed=failed,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )))
    return 0


def check(w, item, out, digests, texts, refs, quasipoly) -> str:
    """Why an operation's result is wrong, or "" if it is right."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    if w in ("comb_ladder", "tr_ladder"):
        name = case_name(*item)
        got = hashlib.sha256(quasipoly.qp_to_json(out).encode("utf-8")).hexdigest()
        return "" if got == digests[name] else "polynomial differs from the reference digest"
    if w == "eval_deep":
        g, n, b = item
        sym, asym = out
        ref = refs.get(case_name(g, n))
        if ref is None:
            return "no valid reference"
        if sym != asym:
            return f"symmetric {sym} != asymmetric {asym}"
        want = ref.evaluate(b)
        return "" if sym == want else f"value {sym} != reference {want}"
    kind, g, n, _ = item
    if kind == "read":
        return "" if out else "output differs from the reference JSON"
    text = texts.get(case_name(g, n))
    if text is None:
        return "no valid reference"
    try:
        written = Path(out).read_text(encoding="utf-8")
    except OSError as exc:
        return f"cannot read the written entry: {exc}"
    return "" if written == text else "written entry differs from the reference JSON"


if __name__ == "__main__":
    sys.exit(main())
