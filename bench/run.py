"""Benchmark of ehrtensor: one seeded workload, its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout; the library is imported from the checkout's
``src/``.  Every measured run is a fresh interpreter (``bench/worker.py``),
so the library's module-level caches start empty.  The item count is fixed
by ``--seconds`` and the workload's rate below, not by the clock, so one
seed gives the same inputs on every commit.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones; the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.  See
``bench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

# Items per second of --seconds; fixes how many items one run makes.  At the
# commit that defined the benchmark (2-core VM, Python 3.11) the timed region
# lasts about --seconds for halfopen-d4 and verify-corpus, 1.2 times that for
# pick-2d and 1.8 times for scan-d4, whose items vary most from seed to seed.
ITEMS_PER_SECOND = {"scan-d4": 4.0, "pick-2d": 12.0, "halfopen-d4": 10.0,
                    "verify-corpus": 11.5}
SETUP_SAMPLES = 5           # set-ups per run; setup_s is their median
TIME_LIMIT_S = 170          # the whole run, every worker included
TAIL_LEVELS = (999, 990, 900)      # candidate tail percentiles in per mille
TAIL_BEYOND = 10            # samples a tail percentile needs above it


class WorkerError(RuntimeError):
    pass


def launch(mode: str, deadline: float, *extra: str) -> tuple[float, dict | None]:
    """Run one worker to completion; return (set-up seconds, its JSON result).

    Set-up time runs from the spawn of the interpreter to its ``ready`` line.
    """
    cmd = [sys.executable, str(WORKER), "--mode", mode, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    # unbuffered, so reading the ready line leaves the rest in the pipe
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - start
            if line != b"ready\n":
                raise WorkerError(f"{mode} worker did not get ready: {line!r}")
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py"), BENCH / "reference.json"]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def finding_problems(deadline: float) -> list[str]:
    """The seed-42 scan of the shipped finding, once per state of the sources.

    It takes about as long as a whole run, so a passing result is remembered
    in ``.bench_out`` under a digest of ``src/`` and ``bench/``.
    """
    stamp = OUT / f"finding-{source_digest()[:20]}.ok"
    if stamp.exists():
        return []
    _, result = launch("finding", deadline)
    expected = json.loads((BENCH / "reference.json").read_text())["finding"]
    problems = list(result["problems"])
    if result["digest"] != expected:
        problems.append("seed-42 scan output differs from the recorded digest")
    if not problems:
        stamp.write_text(result["digest"] + "\n")
    return problems


def _rank(level: int, n: int) -> int:
    """Nearest rank (1-based) of the per-mille percentile among n samples."""
    return -(-level * n // 1000)


def tail_level(n: int) -> int:
    """Highest of TAIL_LEVELS with TAIL_BEYOND of n samples above it, else 500."""
    return next((q for q in TAIL_LEVELS if n - _rank(q, n) >= TAIL_BEYOND), 500)


def tail(samples: list[float]) -> float:
    """The samples' percentile at ``tail_level``; at 500, their median."""
    q = tail_level(len(samples))
    if q == 500:
        return statistics.median(samples)
    return sorted(samples)[_rank(q, len(samples)) - 1]


def end_to_end(samples: list[tuple[float, dict]], run: dict) -> dict:
    """End-to-end metrics, all scaled to the reference host speed.

    ``samples`` holds (set-up seconds, worker result) of every spawned worker;
    a result's first calibration loop was timed right after its set-up.
    """
    setups = [s * calibration.scale(result["loops"][0]) for s, result in samples]
    lat = [t * k for t, k in zip(run["latencies"], calibration.item_scales(run["loops"]))]
    wall = sum(lat)
    return {"setup_s": statistics.median(setups), "wall_s": wall,
            "items_per_s": len(lat) / wall,
            "item_ms_p50": statistics.median(lat) * 1e3,
            "item_ms_tail": tail(lat) * 1e3,
            "peak_rss_mb": run["rss_mb"]}


def per_layer(run: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["ehrhart.cache_hit_ratio"] = run["cache_hit_ratio"]
    layers["trace.overhead_s"] = traced["wall_s"] - sum(run["latencies"])
    return layers


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(samples: list[tuple[float, dict]], run: dict, traced: dict | None,
           problems: list[str]) -> tuple[dict, list[str]]:
    """The result line, from the untraced run and, with tracing, the traced one."""
    problems = problems + run["problems"]
    failed = run["failed"]
    if not run["reference_ok"]:
        problems.append("reference items of seed 0 differ from reference.json")
    if traced is None:
        metrics = end_to_end(samples, run)
    else:
        metrics = per_layer(run, traced)
        problems += traced["problems"]
        failed = max(failed, traced["failed"])
        if traced["digests"] != run["digests"]:
            problems.append("traced outputs differ from untraced outputs")
    units = declared_units(traced is not None)
    if set(metrics) != set(units):
        raise KeyError(f"metrics {sorted(set(metrics) ^ set(units))} not as declared")
    return {"correct": not problems, "attempted": len(run["latencies"]), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ITEMS_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ehrtensor" / "__init__.py").is_file():
        print(f"no ehrtensor sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    items = max(1, round(args.seconds * ITEMS_PER_SECOND[args.workload]))
    if args.trace:
        items = (items + 1) // 2    # a traced run makes every item twice
    job = ["--workload", args.workload, "--seed", str(args.seed), "--items", str(items)]
    try:
        problems = finding_problems(deadline)
        samples = [launch("setup", deadline, *job)
                   for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        samples.append(launch("run", deadline, *job))
        run = samples[-1][1]
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.json"
            _, traced = launch("trace", deadline, *job, "--spans", str(spans))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    result, problems = report(samples, run, traced if args.trace else None, problems)
    for p in problems[:10]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {items} items", file=sys.stderr)
    if not args.trace:
        print(f"  item_ms_tail is p{tail_level(items) / 10:g}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
