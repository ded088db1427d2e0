"""Run one workload of the nbar benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads and metrics are listed, with
their units and the reason for each workload, in BENCHMARK.json.

Each pass is a fresh interpreter running worker.py, single-threaded, one at a
time, so every memo starts cold.  Bytecode goes to a per-run directory
(``PYTHONPYCACHEPREFIX``) that one untimed warm-up pass at tiny size fills,
so every timed pass loads fresh bytecode whatever ``__pycache__`` the
checkout holds.  After the warm-up and twelve set-up-only passes, passes
repeat while the next one is expected to end within ``--seconds`` of the
run's start (at least one runs); each metric is the median over passes.
``setup_s`` also takes in the set-up-only passes.  With
``--trace 1`` the passes alternate untraced and traced; the traced ones give
the per-layer metrics, and the difference of the two medians is
``trace.overhead_s``.

Pass caches go to a temporary directory under perfbench/.work that is
removed at the end, so ~/.cache/nbar is never touched.  Every result is
also written, with the machine and the inputs, to perfbench/out/.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, REF_DIR, ROOT
from tracing import layer_metrics

RUN_LIMIT_S = 170  # a run must be over within 180 s
SETUP_PROBES = 12


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def op_stats(durations: list) -> tuple:
    """Median op time and the highest percentile with at least ten samples beyond it.

    With fewer than eleven operations in a pass no percentile has ten beyond
    it, and the tail is the slowest operation.
    """
    ranked = sorted(durations)
    tail = ranked[-11] if len(ranked) >= 11 else ranked[-1]
    return statistics.median(ranked), tail


class Runner:
    def __init__(self, args, work: Path, trace_file: Path):
        self.args = args
        self.work = work
        self.trace_file = trace_file  # each traced pass overwrites it; the last one's spans stay
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_LIMIT_S
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
                        PYTHONPYCACHEPREFIX=str(work / "pycache"))

    def worker(self, mode: str) -> dict:
        """One pass in a fresh interpreter with its own cache directory.

        ``mode`` is "plain", "traced", "setup" (set-up only) or "warm-up" (a
        traced pass at tiny size, the only one that writes bytecode).
        """
        self.count += 1
        cache_dir = self.work / f"cache-{self.count}"
        size = "tiny" if mode == "warm-up" else self.args.size
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", size, "--cache-dir", str(cache_dir)]
        if mode == "setup":
            cmd.append("--setup-only")
        elif mode == "traced":
            cmd += ["--trace-out", str(self.trace_file)]
        elif mode == "warm-up":
            cmd += ["--trace-out", str(self.work / "warm-up.spans.json")]
        env = dict(self.env, NBAR_CACHE_DIR=str(cache_dir), PYTHONDONTWRITEBYTECODE="1")
        if mode == "warm-up":
            del env["PYTHONDONTWRITEBYTECODE"]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode == "traced":
            out["layers"] = layer_metrics(json.loads(self.trace_file.read_text(encoding="utf-8")))
        return out

    def passes(self, modes: tuple) -> list:
        """Cycle through pass modes while the next cycle is expected to end within the run's time."""
        start = time.perf_counter()
        done = []
        while True:
            for mode in modes:
                done.append(self.worker(mode))
            now = time.perf_counter()
            cycle = (now - start) * len(modes) / len(done)
            if now + cycle > self.start + self.args.seconds or now + cycle > self.deadline:
                return done


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(whys), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nbar" / "__init__.py").is_file() or not (REF_DIR / "digests.json").is_file():
        print(f"{ROOT} is not an nbar checkout with perfbench references", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "why": whys[args.workload], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size, "machine": machine()}
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(args, work, out_dir / f"{stem}.spans.json")
    try:
        runner.worker("warm-up")
        if args.trace:
            runs = runner.passes(("plain", "traced"))
            metrics, units = traced_metrics(spec, runs[0::2], runs[1::2])
        else:
            setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
            runs = runner.passes(("plain",))
            metrics, units = end_to_end_metrics(spec, runs, setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["passes"] = [{k: v for k, v in r.items() if k != "durations"} for r in runs]
    record["result"] = result
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# record: {path.relative_to(ROOT)}; {len(runs)} passes; machine {json.dumps(record['machine'])}")
    print(json.dumps(result))
    return 0


def end_to_end_metrics(spec: dict, runs: list, setups: list):
    for r in runs:
        r["op_p50_s"], r["op_tail_s"] = op_stats(r["durations"])
        r["ops"] = len(r["durations"])
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    attempted = sum(r["attempted"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
        "wall_s": med("wall_s"),
        "peak_rss_mib": med("peak_rss_kib") / 1024,
        "ok_frac": 1 - sum(r["failed"] for r in runs) / attempted,
        "op_p50_ms": med("op_p50_s") * 1000,
        "op_tail_ms": med("op_tail_s") * 1000,
    }
    return metrics, _units(spec["end_to_end"], metrics)


def traced_metrics(spec: dict, plain: list, traced: list):
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics, _units(spec["per_layer"], metrics)


def _units(declared: list, metrics: dict) -> dict:
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(units))} are not both declared and measured")
    return units


if __name__ == "__main__":
    sys.exit(main())
