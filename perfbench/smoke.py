"""Fast self-check of the benchmark: every workload at tiny size, in under two minutes.

    python3 perfbench/smoke.py

For each workload it checks that an untraced and a traced run succeed with
every declared metric, that two traced runs with the same seed give exactly
the same counts, and that in a copy of the tree with one reference digest
altered the operations that need it are counted as failed rather than
passing.  It also checks that run.py refuses, without printing a result, in
a directory holding only the benchmark.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT

COUNTS = ("lattice.value_calls", "exact.linsolve_calls", "exact.rf_add_calls", "exact.poly_gcd_calls",
          "exact.laurent_mul_calls", "tr.xi_decompose_calls", "cache.get_calls", "cache.put_calls",
          "cache.bytes_written")


def run(root, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(out)}")
    return out


def copy_tree(dest, with_src: bool) -> None:
    """A copy of BENCHMARK.json and perfbench/, and of src/ if ``with_src``, at ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns(".work", "out", "__pycache__")
    shutil.copytree(BENCH_DIR, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    altered = BENCH_DIR / ".work" / "altered"
    copy_tree(altered, with_src=True)
    digests_file = altered / "perfbench" / "ref" / "digests.json"
    digests = json.loads(digests_file.read_text(encoding="utf-8"))
    digests["g0n4"] = format(int(digests["g0n4"], 16) ^ 1, "064x")
    digests_file.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def expect(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        plain = result(run(ROOT, w, 0))
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0, f"{w}: untraced run is correct")
        expect(set(plain["metrics"]) == e2e, f"{w}: untraced run reports every end-to-end metric")
        first, second = result(run(ROOT, w, 1)), result(run(ROOT, w, 1))
        expect(first["correct"] and set(first["metrics"]) == layers, f"{w}: traced run reports every per-layer metric")
        same = all(first["metrics"][c]["value"] == second["metrics"][c]["value"] for c in COUNTS)
        expect(same, f"{w}: counts repeat exactly between two traced runs")
        bad = result(run(altered, w, 0))
        expect(not bad["correct"] and bad["failed"] > 0 and bad["metrics"]["ok_frac"]["value"] < 1,
               f"{w}: an altered reference digest is counted as failed ({bad['failed']} of {bad['attempted']})")

    shutil.rmtree(altered)
    bare = BENCH_DIR / ".work" / "bare"
    copy_tree(bare, with_src=False)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the package, run.py fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
