"""Command-line front door: it parses flags, loads input and formats results; each identity
lives with its route (:func:`ehrtensor.ehrhart.route_identities`, the Pick formulas of
:mod:`ehrtensor.triangulation`, the PSD checks of :mod:`ehrtensor.positivity`).
Reproducibility first: flags only, deterministic JSON (sorted keys), no config files.  All
rationals print reduced as "p/q".  Exit codes: 0 success, 1 failed checks or violations under
--fail-on-violation, 2 malformed input, 3 degenerate polytope.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import ehrhart, halfopen, positivity, triangulation
from .polytopes import DegenerateInputError, facet_to_json, polytope_from_json
from .tensors import SymTensor, rational_to_str, tensor_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_DEGENERATE = 3


class CliError(Exception):
    def __init__(self, code: int, kind: str, message: str, **extra):
        self.code = code
        self.payload = {"error": {"kind": kind, "message": message, **extra}}
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # a typed refusal; subparsers share the class
        raise CliError(EXIT_MALFORMED, "invalid_arguments", message)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# Python's int <-> str digit limit, absent before 3.10.7
_get_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)


def _load_json(source: str):
    """The input, parsed under the digit limit, which bounds the parse; an exact
    answer may have more digits, so the limit is lifted until :func:`main` returns."""
    try:
        if source == "-":
            return json.load(sys.stdin)
        if source.lstrip().startswith("{"):
            return json.loads(source)
        with open(source) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(EXIT_MALFORMED, "malformed_input", str(exc)) from exc
    finally:
        _set_int_max_str_digits(0)


def _load(source: str, parse):
    """``parse`` of the JSON at ``source``, its refusals as CLI errors."""
    data = _load_json(source)
    try:
        return parse(data)
    except DegenerateInputError as exc:
        raise CliError(EXIT_DEGENERATE, "degenerate_polytope", str(exc),
                       affine_dim=exc.affine_dim) from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(EXIT_MALFORMED, "malformed_input", str(exc)) from exc


def _table_tensor(t: SymTensor) -> str:
    if t.rank == 0:
        return rational_to_str(t.as_scalar())
    if t.rank == 1:
        return "(" + ", ".join(rational_to_str(x) for x in t.entries) + ")"
    if t.rank == 2:
        rows = [[rational_to_str(x) for x in row] for row in t.to_matrix()]
        width = max(len(s) for row in rows for s in row)
        return "\n".join("[ " + "  ".join(s.rjust(width) for s in row) + " ]"
                         for row in rows)
    return repr(t)


def _print_tensor_block(label: str, t: SymTensor) -> None:
    body = _table_tensor(t)
    if "\n" in body:
        print(f"{label}:")
        for line in body.split("\n"):
            print("  " + line)
    else:
        print(f"{label}: {body}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_moments(args) -> int:
    p = _load(args.input, polytope_from_json)
    # past the dilates the h route scans, its polynomial at n rather than a scan of nP
    t = (ehrhart.ehrhart_tensor_polynomial(p, args.r).evaluate(args.n)
         if args.n > -(-(p.dim + args.r) // 2) else ehrhart.discrete_moment(p, args.r, args.n))
    if args.table:
        _print_tensor_block(f"L^{args.r}({args.n}P)", t)
    else:
        _emit({"r": args.r, "n": args.n, "dim": p.dim, "moment": tensor_to_json(t)})
    return EXIT_OK


def _cmd_ehrhart(args) -> int:
    p = _load(args.input, polytope_from_json)
    poly = ehrhart.ehrhart_tensor_polynomial(p, args.r)
    if args.table:
        for k, c in enumerate(poly.coeffs):
            _print_tensor_block(f"n^{k}", c)
    else:
        _emit({"r": args.r, "dim": p.dim,
               "coeffs": [tensor_to_json(c) for c in poly.coeffs]})
    return EXIT_OK


def _cmd_hvec(args) -> int:
    p = _load(args.input, polytope_from_json)
    h = ehrhart.to_hr_vector(p, args.r)
    if args.table:
        for k, c in enumerate(h.entries):
            _print_tensor_block(f"h_{k}", c)
    else:
        _emit({"r": args.r, "dim": p.dim, "h": [tensor_to_json(c) for c in h.entries]})
    return EXIT_OK


def _pick_agreements(p, h1, h2):
    """The unimodular triangulation of the polygon P, its four Pick formulas (h^1, h^2, L^1,
    L^2), and ``(name, passed)`` of each against production h1, h2 and their polynomials."""
    tri = triangulation.unimodular_triangulation(p)
    formulas = (triangulation.h1_pick(tri), triangulation.h2_pick(tri),
                triangulation.ehrhart_vector_pick(tri), triangulation.ehrhart_matrix_pick(tri))
    production = (h1, h2, ehrhart.hr_vector_to_polynomial(h1), ehrhart.hr_vector_to_polynomial(h2))
    names = ("pick_h1_agrees", "pick_h2_agrees", "pick_vector_polynomial_agrees",
             "pick_matrix_polynomial_agrees")
    return tri, formulas, [(n, f == g) for n, f, g in zip(names, formulas, production)]


def _cmd_pick(args) -> int:
    p = _load(args.input, polytope_from_json)
    if p.dim != 2:
        raise CliError(EXIT_MALFORMED, "not_a_polygon",
                       "pick formulas need a 2-dimensional polytope")
    tri, (h1, h2, l1, l2), checks = _pick_agreements(p, *ehrhart.hr_vectors(p, (1, 2)))
    agree = all(ok for _, ok in checks)
    out = {
        "h1": [tensor_to_json(c) for c in h1.entries],
        "h2": [tensor_to_json(c) for c in h2.entries],
        "vector_coeffs": [tensor_to_json(c) for c in l1.coeffs],
        "matrix_coeffs": [tensor_to_json(c) for c in l2.coeffs],
        "agrees_with_interpolation": agree,
        "triangles": len(tri.triangles),
    }
    if args.triangulate:
        out["triangulation"] = {"points": [list(q) for q in tri.points],
                                "triangles": [list(t) for t in tri.triangles]}
    if args.table:
        print(f"triangles: {len(tri.triangles)}")
        print(f"agrees with interpolation: {agree}")
        for k, c in enumerate(h2.entries):
            _print_tensor_block(f"h2_{k}", c)
    else:
        _emit(out)
    return EXIT_OK


def _cmd_halfopen(args) -> int:
    s = _load(args.input, halfopen.halfopen_from_json)
    box = halfopen.box_slices(s)
    (h,) = halfopen._hr_sums([(s, box)], (args.r,))
    out = {
        "r": args.r,
        "dim": s.dim,
        "removed": sorted(s.removed),
        "h": [tensor_to_json(c) for c in h.entries],
        "box_slices": [[list(q) for q in sl] for sl in box.slices],
    }
    if args.table:
        for k, c in enumerate(h.entries):
            _print_tensor_block(f"h_{k}", c)
    else:
        _emit(out)
    return EXIT_OK


def _report_json(rep: positivity.DefinitenessReport) -> dict:
    return {
        "classification": rep.classification,
        "witness": None if rep.witness is None
        else [rational_to_str(x) for x in rep.witness],
        "witness_value": None if rep.witness_value is None
        else rational_to_str(rep.witness_value),
        "kernel": None if rep.kernel is None
        else [rational_to_str(x) for x in rep.kernel],
    }


def _cmd_psd(args) -> int:
    p = _load(args.input, polytope_from_json)
    h = ehrhart.to_hr_vector(p, 2)
    h_reports, l_reports = positivity.check_h2_psd(h), positivity.check_ehrhart_psd(h)
    out = {"h2": [_report_json(r) for r in h_reports],
           "ehrhart2": [_report_json(r) for r in l_reports]}
    if args.table:
        for i, r in enumerate(h_reports):
            print(f"h2_{i}: {r.classification}")
        for i, r in enumerate(l_reports, start=1):
            print(f"L2_{i}: {r.classification}")
    else:
        _emit(out)
    violating = args.fail_on_violation and not all(r.is_psd for r in h_reports)
    return EXIT_FAIL if violating else EXIT_OK


def _cmd_reflexive(args) -> int:
    p = _load(args.input, polytope_from_json)
    reflexive = positivity.is_reflexive(p)
    origin_interior = all(f.rhs >= 1 for f in p.facets)
    hstar, h2 = ehrhart.hr_vectors(p, (0, 2))
    out = {
        "reflexive": reflexive,
        "origin_interior": origin_interior,
        "facets": [facet_to_json(f) for f in p.facets],
        "hstar_palindromic": positivity.palindromic(hstar),
        "h2_palindromic": positivity.palindromic(h2),
        "biconditional_r0": None,
        "biconditional_r2": None,
    }
    if origin_interior:
        out["biconditional_r0"] = reflexive == out["hstar_palindromic"]
        out["biconditional_r2"] = reflexive == out["h2_palindromic"]
    if args.table:
        for k, v in sorted(out.items()):
            if k != "facets":
                print(f"{k}: {v}")
        for f in p.facets:
            print(f"facet: {list(f.normal)} . x <= {f.rhs}")
    else:
        _emit(out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    rep = positivity.conjecture_scan(args.dim, args.trials, args.bound,
                                     args.gens, args.seed, args.which)
    if args.table:
        print(f"scan {rep.which} d={rep.dimension}: {rep.completed} completed, "
              f"{rep.skipped_no_interior} skipped, "
              f"{len(rep.violations)} violations")
        if rep.runtime_seconds is not None:
            print(f"runtime: {rep.runtime_seconds:.2f}s", file=sys.stderr)
    else:
        _emit(rep.to_json())
    if args.fail_on_violation and rep.violations:
        return EXIT_FAIL
    return EXIT_OK


def _cmd_verify(args) -> int:
    p = _load(args.input, polytope_from_json)
    # the h of ranks 0..2 from one call, met by routes that do not read it
    hs = ehrhart.hr_vectors(p, (0, 1, 2))
    checks = ehrhart.route_identities(p, hs)
    if p.dim == 2:
        checks += _pick_agreements(p, hs[1], hs[2])[2]
        checks.append(("h2_entries_psd", all(r.is_psd for r in positivity.check_h2_psd(hs[2]))))

    all_pass = all(ok for _, ok in checks)
    if args.as_json:
        _emit({"checks": [{"name": n, "pass": ok} for n, ok in checks],
               "all_pass": all_pass})
    else:
        width = max(len(name) for name, _ in checks)
        for name, ok in checks:
            print(f"{name.ljust(width)}  {'pass' if ok else 'FAIL'}")
        print(f"{'overall'.ljust(width)}  {'pass' if all_pass else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ehrtensor",
        description="Exact moment tensors and h-tensor vectors of lattice polytopes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", help="path to polytope JSON, inline JSON, or - for stdin")
        sp.add_argument("--table", action="store_true", help="human-readable table output")

    sp = sub.add_parser("moments", help="discrete moment tensor of a dilate")
    add_io(sp)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--n", type=int, default=1)
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("ehrhart", help="moment tensor dilation polynomial")
    add_io(sp)
    sp.add_argument("--r", type=int, default=0)
    sp.set_defaults(func=_cmd_ehrhart)

    sp = sub.add_parser("hvec", help="h-tensor vector")
    add_io(sp)
    sp.add_argument("--r", type=int, default=0)
    sp.set_defaults(func=_cmd_hvec)

    sp = sub.add_parser("pick", help="triangulation formulas for a polygon")
    add_io(sp)
    sp.add_argument("--triangulate", action="store_true",
                    help="include the triangulation in the output")
    sp.set_defaults(func=_cmd_pick)

    sp = sub.add_parser("halfopen", help="h-vector of a half-open simplex")
    add_io(sp)
    sp.add_argument("--r", type=int, default=2)
    sp.set_defaults(func=_cmd_halfopen)

    sp = sub.add_parser("psd", help="definiteness of h- and moment-matrix coefficients")
    add_io(sp)
    sp.add_argument("--fail-on-violation", action="store_true")
    sp.set_defaults(func=_cmd_psd)

    sp = sub.add_parser("reflexive", help="reflexivity and palindromicity")
    add_io(sp)
    sp.set_defaults(func=_cmd_reflexive)

    sp = sub.add_parser("scan", help="seeded random conjecture scan")
    add_io(sp, needs_input=False)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bound", type=int, default=2)
    sp.add_argument("--gens", type=int, default=8)
    families = tuple(positivity.SCAN_FAMILIES)
    sp.add_argument("--which", choices=families, default=families[0])
    sp.add_argument("--fail-on-violation", action="store_true")
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("verify", help="full cross-check battery on one polytope")
    sp.add_argument("input", help="path to polytope JSON, inline JSON, or - for stdin")
    sp.add_argument("--json", dest="as_json", action="store_true",
                    help="JSON output instead of the pass/fail matrix")
    sp.set_defaults(func=_cmd_verify)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    digits = _get_int_max_str_digits()
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        _emit(exc.payload)
        return exc.code
    except ValueError as exc:
        _emit({"error": {"kind": "invalid_arguments", "message": str(exc)}})
        return EXIT_MALFORMED
    finally:
        _set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
