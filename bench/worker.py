"""One benchmark process: set up, run the items, check them, report.

    python3 bench/worker.py --mode MODE [--workload NAME --seed N --items K]

Modes:

- ``setup``: import the library and build the inputs, print ``ready``, time
  the calibration loop once, exit.
- ``run``: set up, print ``ready``, run the items untraced, then the
  reference items; the timed region is each item's library call alone.
- ``trace``: run the items as spans around explicit per-module calls
  (``--spans FILE`` receives the raw spans).
- ``finding``: print ``ready``, then run the seed-42 d=4 scan that must
  report the shipped finding.
- ``record``: rewrite ``reference.json`` from the current library.

The last stdout line is one JSON object.  The library is imported from the
checkout's ``src/`` and nowhere else.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
REFERENCE_ITEMS = {"scan-d4": 2, "pick-2d": 5, "halfopen-d4": 5, "verify-corpus": 5}


def import_library() -> None:
    """Import ehrtensor from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import ehrtensor
    if Path(ehrtensor.__file__).resolve().parent != (SRC / "ehrtensor").resolve():
        raise SystemExit(f"ehrtensor imported from {ehrtensor.__file__}, not {SRC}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _attempt(k: int, fn, *args):
    """Call fn; on an exception return (None, [traceback]) instead of raising."""
    try:
        return fn(*args), []
    except Exception:   # one failing item must not stop the run
        return None, [f"item {k}: {traceback.format_exc(limit=4)}"]


def _finish(w, k: int, x, out, errors: list[str]) -> tuple[str | None, list[str]]:
    """Check one output, outside any timing; return its digest and problems."""
    if errors:
        return None, errors
    found, errors = _attempt(k, w.check, x, out)
    data, encode_errors = _attempt(k, w.encode, out)
    problems = errors + encode_errors + [f"item {k}: {p}" for p in found or ()]
    return (None if data is None else digest(data)), problems


def run_items(w, inputs, caches) -> dict:
    """Untraced closed loop: reset caches, time the call alone, then check it.

    The calibration loop is timed before each item and after the last one.
    """
    latencies, loops, digests, problems = [], [], [], []
    failed = 0
    for k, x in enumerate(inputs):
        caches.reset()
        loops.append(calibration.loop_seconds())
        start = time.perf_counter()
        out, errors = _attempt(k, w.run, x)
        latencies.append(time.perf_counter() - start)
        caches.tally()
        item_digest, errors = _finish(w, k, x, out, errors)
        digests.append(item_digest)
        failed += bool(errors)
        problems += errors
    loops.append(calibration.loop_seconds())
    return {"latencies": latencies, "loops": loops, "digests": digests, "failed": failed,
            "problems": problems, "cache_hit_ratio": caches.hit_ratio()}


def trace_items(w, specs, caches, tr) -> dict:
    """Traced closed loop: one ``item`` span per input, layer spans inside."""
    digests, problems = [], []
    failed = 0
    for k, spec in enumerate(specs):
        caches.reset()
        with tr.span("item"):
            out, errors = _attempt(k, w.traced, spec, tr)
        item_digest, errors = _finish(w, k, w.build(spec), out, errors)
        digests.append(item_digest)
        failed += bool(errors)
        problems += errors
    return {"digests": digests, "failed": failed, "problems": problems,
            "wall_s": tr.totals()["item"], "layers": layer_metrics(tr)}


def layer_metrics(tr) -> dict:
    """Per-module metrics from the spans and counts of a traced run.

    Layer spans have no children, so their self time is their duration; the
    self time of the ``item`` spans is the part no layer span covers.
    """
    t, c = tr.self_times(), tr.counts
    enumerate_s = t["polytopes.enumerate"] + t["polytopes.enumerate_interior"]
    edge_stats_s = t["triangulation.edge_stats"]
    item_s = tr.totals()["item"]
    return {
        "polytopes.hull_s": t["polytopes.hull"],
        "polytopes.enumerate_s": enumerate_s,
        "polytopes.points": c["polytopes.points"],
        "polytopes.points_per_s": c["polytopes.points"] / enumerate_s if enumerate_s else 0.0,
        "ehrhart.moment_s": t["ehrhart.moment"],
        "ehrhart.moment_calls": c["ehrhart.moment_calls"],
        # discrete_moment minus the explicit enumeration of the same dilates
        "ehrhart.accumulate_s": t["ehrhart.moment"] - t["polytopes.enumerate"],
        "ehrhart.hvector_s": t["ehrhart.hvector"],
        "triangulation.triangulate_s": t["triangulation.triangulate"],
        "triangulation.triangles": c["triangulation.triangles"],
        "triangulation.edge_stats_s": edge_stats_s,
        "triangulation.formulas_s": t["triangulation.formulas"],
        "triangulation.formulas_per_edge_stats":
            t["triangulation.formulas"] / edge_stats_s if edge_stats_s else 0.0,
        "halfopen.box_s": t["halfopen.box"],
        "halfopen.box_points": c["halfopen.box_points"],
        # hr_halfopen minus the explicit box_slices of the same simplex
        "halfopen.assemble_s": t["halfopen.hr_halfopen"] - t["halfopen.box"],
        "positivity.classify_s": t["positivity.classify"],
        "positivity.classify_calls": c["positivity.classify_calls"],
        "positivity.non_psd": c["positivity.non_psd"],
        "cli.request_s": t["cli.request"],
        "cli.stdout_bytes": c["cli.stdout_bytes"],
        "trace.coverage": 1 - t["item"] / item_s if item_s else 0.0,
    }


def reference_digests(w, caches, count: int) -> list[str | None]:
    """Digests of the first items of the benchmark's own reference seed."""
    inputs = [w.build(s) for s in w.specs(REFERENCE_SEED, count)]
    return run_items(w, inputs, caches)["digests"]


def finding_result(workloads) -> dict:
    rep = workloads.finding_scan()
    return {"digest": digest(workloads.canonical(rep.to_json())),
            "problems": workloads.scan_problems(rep)}


def record(workloads, caches) -> None:
    data = {"seed": REFERENCE_SEED,
            "items": {name: reference_digests(w, caches, REFERENCE_ITEMS[name])
                      for name, w in workloads.WORKLOADS.items()},
            "finding": finding_result(workloads)["digest"]}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _ready() -> None:
    print("ready", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "trace", "finding", "record"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--items", type=int, default=1)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    import_library()
    import workloads
    from spans import Tracer
    if args.mode == "record":
        record(workloads, workloads.Caches())
        return 0
    if args.mode == "finding":
        _ready()
        print(json.dumps(finding_result(workloads)))
        return 0

    w = workloads.WORKLOADS[args.workload]
    specs = w.specs(args.seed, args.items)
    if args.mode == "trace":
        _ready()
        tr = Tracer()
        result = trace_items(w, specs, workloads.Caches(), tr)
        if args.spans is not None:
            tr.dump(args.spans)
    else:
        inputs = [w.build(s) for s in specs]
        _ready()
        if args.mode == "setup":
            print(json.dumps({"loops": [calibration.loop_seconds()]}))
            return 0
        caches = workloads.Caches()
        result = run_items(w, inputs, caches)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        expected = json.loads(REFERENCE.read_text())["items"][w.name]
        result["reference_ok"] = reference_digests(w, caches, len(expected)) == expected
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
