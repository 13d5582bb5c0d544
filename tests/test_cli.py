"""Command-line interface: formats, determinism, exit codes."""
import hashlib
import io
import json
import subprocess
import sys
from decimal import Decimal

import pytest

import ehrtensor as et
from ehrtensor import cli, ehrhart, halfopen, linalg, polytopes, positivity, triangulation
from ehrtensor.cli import main
from ehrtensor.ehrhart import BOTH, CLOSED, INTERIOR
from ehrtensor.positivity import trial_seed
from ehrtensor.tensors import tensor_to_json

from conftest import record_calls

SQUARE = '{"vertices": [[0,0],[1,0],[0,1],[1,1]]}'
TRIANGLE_51 = '{"dim": 2, "vertices": [[0,1],[-1,-7],[1,-4]]}'


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def random_request(dim: int, bound: int, seed: int) -> str:
    return json.dumps(et.polytope_to_json(et.random_lattice_polytope(dim, bound, 8, seed)))


def test_moments_inline_json(capsys):
    code, out, _ = run_cli(["moments", "--r", "2", "--n", "1", SQUARE], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["moment"] == [["2", "1"], ["1", "2"]]


def test_ehrhart_printed_matrices(capsys):
    code, out, _ = run_cli(["ehrhart", "--r", "2", TRIANGLE_51], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"][2] == [["-1/12", "-1/8"], ["-1/8", "-23/12"]]
    assert data["coeffs"][4] == [["13/12", "13/8"], ["13/8", "1079/12"]]


def test_ehrhart_json_round_trips_to_same_bytes(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(SQUARE)
    code1, out1, _ = run_cli(["ehrhart", "--r", "1", str(path)], capsys)
    code2, out2, _ = run_cli(["ehrhart", "--r", "1", str(path)], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_hvec_high_rank_is_silent(capsys):
    code, out, err = run_cli(["hvec", "--r", "3", SQUARE], capsys)
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert len(data["h"]) == 6
    h = et.to_hr_vector(et.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]), 3)
    assert data["h"] == [tensor_to_json(e) for e in h.entries]


def test_rank_flags_take_any_nonnegative_rank(capsys):
    halfopen = '{"vertices": [[2,-2],[3,-2],[2,-1]], "removed": [0]}'
    code, out, _ = run_cli(["halfopen", halfopen, "--r", "3"], capsys)
    assert code == 0
    h = et.hr_halfopen(et.HalfOpenSimplex.make([[2, -2], [3, -2], [2, -1]], [0]), 3)
    assert json.loads(out)["h"] == [tensor_to_json(e) for e in h.entries]
    triangle = '{"vertices": [[0,0],[1,0],[0,1]]}'
    code, out, _ = run_cli(["moments", triangle, "--r", "3"], capsys)
    assert code == 0
    moment = et.discrete_moment(et.convex_hull([(0, 0), (1, 0), (0, 1)]), 3, 1)
    assert json.loads(out)["moment"] == tensor_to_json(moment)
    for command, data in [("moments", triangle), ("ehrhart", triangle),
                          ("hvec", triangle), ("halfopen", halfopen)]:
        for r in ("-1", "-3"):
            code, out, _ = run_cli([command, data, "--r", r], capsys)
            assert code == 2
            error = json.loads(out)["error"]
            assert error["kind"] == "invalid_arguments"
            assert "rank" in error["message"], (command, r, error)


def test_main_reuses_one_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for _ in range(2):
        code, out, _ = run_cli(["hvec", SQUARE], capsys)
        assert code == 0
        assert json.loads(out)["h"] == ["1", "1", "0"]


def test_pick_agreement_flag(capsys):
    code, out, _ = run_cli(["pick", SQUARE, "--triangulate"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["agrees_with_interpolation"] is True
    assert data["triangles"] == 2
    assert len(data["triangulation"]["points"]) == 4


def test_pick_refuses_a_3_polytope(capsys):
    code, out, _ = run_cli(["pick", '{"vertices": [[0,0,0],[1,0,0],[0,1,0],[0,0,1]]}'], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "not_a_polygon"


def test_input_dash_reads_stdin(capsys, monkeypatch):
    _, inline, _ = run_cli(["hvec", "--r", "1", TRIANGLE_51], capsys)
    monkeypatch.setattr(sys, "stdin", io.StringIO(TRIANGLE_51))
    code, out, _ = run_cli(["hvec", "--r", "1", "-"], capsys)
    assert code == 0
    assert out == inline


def test_halfopen_subcommand(capsys):
    code, out, _ = run_cli(
        ["halfopen", '{"vertices":[[2,-2],[3,-2],[2,-1]],"removed":[0]}', "--r", "2"],
        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["h"][1] == [["4", "-4"], ["-4", "4"]]
    assert data["h"][2] == [["37", "-28"], ["-28", "21"]]
    assert data["h"][3] == [["25", "-15"], ["-15", "9"]]


def test_halfopen_enumerates_box_once(capsys, monkeypatch):
    # h and the printed slices come from one box enumeration and one Newton
    # kernel call
    from ehrtensor import halfopen
    calls = {"box": 0, "newton": 0}
    box_slices, newton_columns = halfopen.box_slices, halfopen._newton_columns

    def counting_box(s):
        calls["box"] += 1
        return box_slices(s)

    def counting_newton(*args):
        calls["newton"] += 1
        return newton_columns(*args)

    monkeypatch.setattr(halfopen, "box_slices", counting_box)
    monkeypatch.setattr(halfopen, "_newton_columns", counting_newton)
    code, out, _ = run_cli(
        ["halfopen", '{"vertices": [[2,-2],[3,-2],[2,-1]], "removed": [0]}', "--r", "2"],
        capsys)
    assert code == 0
    assert calls == {"box": 1, "newton": 1}
    assert json.loads(out)["box_slices"] == [[], [[2, -2]], []]


def test_psd_subcommand(capsys):
    code, out, _ = run_cli(["psd", TRIANGLE_51], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ehrhart2"][1]["classification"] == "negative_definite"
    assert all(rep["classification"] in
               ("zero", "positive_semidefinite", "positive_definite")
               for rep in data["h2"])


def test_psd_fails_on_an_indefinite_entry_only_when_asked(capsys, monkeypatch):
    # every h2 entry of the triangle is PSD, so a patched classifier reports
    # the second one, h2_1, indefinite
    classify, calls = positivity.classify_definiteness, []

    def indefinite_second(t):
        calls.append(t)
        if len(calls) == 2:
            return positivity.DefinitenessReport("indefinite", (1, 0), -1)
        return classify(t)

    monkeypatch.setattr(positivity, "classify_definiteness", indefinite_second)
    for flags, exit_code in (([], 0), (["--fail-on-violation"], 1)):
        calls.clear()
        code, out, _ = run_cli(["psd", *flags, TRIANGLE_51], capsys)
        assert code == exit_code
        h2 = json.loads(out)["h2"]
        assert [rep["classification"] == "indefinite" for rep in h2] == \
            [False, True, False, False, False]
        assert h2[1]["witness_value"] == "-1"


def test_reflexive_subcommand(capsys):
    code, out, _ = run_cli(["reflexive", '{"vertices": [[1,0],[0,1],[-1,-1]]}'], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["reflexive"] is True
    assert data["biconditional_r0"] is True
    assert data["biconditional_r2"] is True


def test_reflexive_table_mode(capsys):
    code, out, _ = run_cli(["reflexive", "--table", '{"vertices": [[1,0],[0,1],[-1,-1]]}'], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "reflexive: True" in lines and "biconditional_r2: True" in lines
    assert [line for line in lines if line.startswith("facet: ")] == [
        "facet: [-2, 1] . x <= 1", "facet: [1, -2] . x <= 1", "facet: [1, 1] . x <= 1"]


def test_scan_table_mode(capsys):
    code, out, err = run_cli(["scan", "--dim", "2", "--trials", "4", "--seed", "42",
                              "--bound", "3", "--gens", "5", "--table"], capsys)
    assert code == 0
    assert out == "scan psd d=2: 4 completed, 0 skipped, 0 violations\n"
    assert err.startswith("runtime: ")


def test_scan_fails_on_the_shipped_finding(capsys):
    code, out, _ = run_cli(["scan", "--dim", "4", "--trials", "96", "--seed", "42",
                            "--which", "hibi", "--fail-on-violation"], capsys)
    assert code == 1
    (finding,) = json.loads(out)["violations"]
    assert (finding["trial"], finding["index"], finding["classification"]) == \
        (95, 5, "indefinite")


def test_scan_deterministic_output(capsys):
    args = ["scan", "--dim", "2", "--trials", "4", "--seed", "42",
            "--bound", "3", "--gens", "5"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["completed"] == 4
    assert data["violations"] == []


def _scan_which(parser):
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    (which,) = [a for a in subparsers.choices["scan"]._actions if a.dest == "which"]
    return which


def test_scan_families_come_from_the_table(monkeypatch, capsys):
    which = _scan_which(cli._PARSER)
    assert which.choices == tuple(positivity.SCAN_FAMILIES)
    assert which.default == "psd"
    # a family added to the table is a choice of the next parser built
    monkeypatch.setitem(positivity.SCAN_FAMILIES, "negated", (
        False, lambda h, d: [(i, -h[i], False) for i in range(len(h))]))
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
    assert _scan_which(cli._PARSER).choices[-1] == "negated"
    code, out, _ = run_cli(["scan", "--dim", "2", "--trials", "2", "--which", "negated"], capsys)
    assert code == 0
    assert json.loads(out)["which"] == "negated"


def test_scan_refuses_an_unknown_family(capsys):
    code, out, err = run_cli(["scan", "--which", "nope"], capsys)
    assert code == 2 and err == ""
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid_arguments"
    assert "invalid choice: 'nope'" in error["message"]


@pytest.mark.parametrize("args, says", [
    (["scan", "--dim", "abc"], "invalid int value: 'abc'"),
    (["nope", SQUARE], "invalid choice: 'nope'"),
    (["hvec"], "required: input"),
    (["verify", SQUARE, "--bogus"], "unrecognized arguments: --bogus"),
    ([], "required: command"),
], ids=["bad-int", "unknown-subcommand", "missing-input", "unknown-flag", "no-command"])
def test_argument_refusals_are_typed_errors(args, says, capsys):
    # argparse refuses these before any command runs; they print the same
    # typed error on stdout as the refusals of the commands themselves, with
    # no usage text on stderr
    code, out, err = run_cli(args, capsys)
    assert code == 2 and err == ""
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid_arguments" and says in error["message"]


@pytest.mark.parametrize("args", [["--help"], ["scan", "--help"]])
def test_help_still_exits_zero(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ehrtensor")


def test_scan_takes_any_positive_dimension(capsys):
    code, out, _ = run_cli(["scan", "--dim", "5", "--trials", "1", "--which", "hibi"], capsys)
    assert code == 0
    expected = et.conjecture_scan(5, 1, 2, 8, 0, "hibi").to_json()
    assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"


def test_scan_refuses_dimension_zero(capsys):
    code, out, _ = run_cli(["scan", "--dim", "0"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid_arguments"


def test_verify_square_passes(capsys):
    code, out, _ = run_cli(["verify", SQUARE, "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert any(c["name"] == "pick_h2_agrees" for c in data["checks"])


def verify_pin_corpus() -> list[et.Polytope]:
    """198 seeded polytopes in d = 1..3: 50 per dimension and 16 far
    translates of each dimension's first ones."""
    out = []
    for d, bound, shift in ((1, 6, (10**6 + 3,)), (2, 4, (-(10**5) - 7, 4099)),
                            (3, 2, (7919, -(10**6) - 1, 65537))):
        corpus = [et.random_lattice_polytope(d, bound, 8, seed=900 + seed) for seed in range(50)]
        out += corpus + [p.translate(shift) for p in corpus[:16]]
    return out


def test_verify_and_oracle_outputs_are_pinned(capsys):
    # one digest over the stdout and exit code of `verify --json` and the
    # entries of the oracle h of ranks 0..3 on each polytope of the corpus
    digest = hashlib.sha256()
    for p in verify_pin_corpus():
        code, out, _ = run_cli(["verify", "--json", json.dumps(et.polytope_to_json(p))], capsys)
        digest.update(repr((code, out)).encode())
        oracle = ehrhart._oracle(et.convex_hull(p.vertices), (0, 1, 2, 3))
        digest.update(repr([[e.entries for e in h.entries] for h in oracle]).encode())
    assert digest.hexdigest() == \
        "0bdc6199cf8b75b3a7104154e597d6ea6c101401284af8c6afa10028a942a11f"


@pytest.mark.parametrize("dim, bound", [(2, 6), (3, 2)])
def test_verify_builds_one_placing_triangulation(dim, bound, capsys, monkeypatch):
    # the volume and facet sums that verify meets h with read the boundary
    # the polytope keeps, the one convex_hull built on the input points (in 2D
    # the monotone chain's edges, with no placing triangulation), and its
    # stored volumes, in one integer pass
    request = random_request(dim, bound, 1)
    builds = []
    build = polytopes.placing_triangulation
    monkeypatch.setattr(polytopes, "placing_triangulation",
                        lambda points: builds.append(points) or build(points))
    polytopes.polytope_from_json(json.loads(request))
    assert len(builds) == (dim != 2)
    builds.clear()
    code, _, _ = run_cli(["verify", request, "--json"], capsys)
    assert code == 0
    assert len(builds) == (dim != 2)


def test_verify_with_a_non_vertex_point_builds_one_triangulation(capsys, monkeypatch):
    # the hull's boundary indexes the input points and may use the edge
    # midpoint (1, 0, 0) as a corner: any triangulation of the boundary gives
    # the same exact sums, so the polytope keeps it
    request = '{"vertices": [[0,0,0],[1,0,0],[2,0,0],[0,1,0],[0,0,1],[1,1,1]]}'
    builds = []
    build = polytopes.placing_triangulation
    monkeypatch.setattr(polytopes, "placing_triangulation",
                        lambda points: builds.append(points) or build(points))
    code, out, _ = run_cli(["verify", request, "--json"], capsys)
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert len(builds) == 1 and (1, 0, 0) in builds[0]


# (n, sides, scanned) of each moment pass of a verify request, by dimension;
# 0P's moments are read in closed form, with no pass.  Below dim 4 the oracle
# reads the closed side of the dilates up to dim + r - 2 <= dim, which the h
# route has read already, and the volume and facet sums.  From dim 4 on the
# oracle is the half-open cells of one decomposition, which scan no dilate.
# So only the h route (both sides from its last dilate down) and reciprocity
# (the interior side for n <= 3) make passes.  A dilate is scanned unless a
# multiple of it is stored: the h route reads 1P off the rows of 2P.
VERIFY_PASSES = {
    1: [(2, BOTH, True), (1, BOTH, False), (3, INTERIOR, True)],
    2: [(2, BOTH, True), (1, BOTH, False), (3, INTERIOR, True)],
    3: [(3, BOTH, True), (2, BOTH, True), (1, BOTH, False)],
    4: [(2, BOTH, True), (1, BOTH, False), (3, INTERIOR, True)],
    5: [(3, BOTH, True), (2, BOTH, True), (1, BOTH, False)],
}


@pytest.mark.parametrize("dim, bound, seed",
                         [(1, 6, 1), (2, 6, 1), (3, 2, 1), (4, 2, trial_seed(42, 95)), (5, 1, 1)])
def test_verify_scans_each_dilate_once(dim, bound, seed, capsys, monkeypatch):
    # every rank, the oracle, the interior moments and the triangulation's
    # point list read one set of rows of each dilate in VERIFY_PASSES, and
    # none of 0P, whose moments are known in closed form.  Ranks 0..2 share
    # one moment pass per dilate, over the sides that some reader asks for:
    # both sides where the h route reads, the interior where only
    # reciprocity (n <= 3) reads; the oracle (dim <= 3) reads closed sides
    # the h route has passed.  From dim 4 on the oracle takes one half-open
    # decomposition instead.  The rows live on the request's polytope, so a
    # second request of the same JSON scans them again.
    request = random_request(dim, bound, seed)
    events = []     # n per read of the h routes, "scan" per scan_rows call
    scan, read = polytopes.scan_rows, ehrhart.dilate_rows
    monkeypatch.setattr(polytopes, "scan_rows", lambda *args: events.append("scan") or scan(*args))
    monkeypatch.setattr(ehrhart, "dilate_rows", lambda p, n: events.append(n) or read(p, n))
    passes = record_calls(monkeypatch, ehrhart, "row_moments")
    decompositions = record_calls(monkeypatch, ehrhart, "half_open_decomposition")
    for _ in range(2):
        for calls in (events, passes, decompositions):
            calls.clear()
        code, out, _ = run_cli(["verify", "--json", request], capsys)
        assert code == 0 and json.loads(out)["all_pass"] is True
        reads = []
        for event in events:
            if event == "scan":
                reads[-1][1] += 1
            else:
                reads.append([event, 0])
        assert len(reads) == len(passes) and {c["r"] for c in passes} == {2}
        # a 1D scan is one 2D slice under a dummy first coordinate, a nested call
        assert [(n, tuple(c["sides"]), scans) for (n, scans), c in zip(reads, passes)] \
            == [(n, sides, scanned * (1 + (dim == 1))) for n, sides, scanned in VERIFY_PASSES[dim]]
        assert len(decompositions) == (dim >= 4)


@pytest.mark.parametrize("args, ranks", [
    (["verify", "--json", random_request(2, 6, 1)], (0, 1, 2)),
    (["verify", "--json", random_request(3, 2, 1)], (0, 1, 2)),
    (["verify", "--json", random_request(4, 2, trial_seed(42, 95))], (0, 1, 2)),
    (["pick", SQUARE], (1, 2)),
    (["reflexive", '{"vertices": [[1,0],[0,1],[-1,-1]]}'], (0, 2)),
    (["psd", SQUARE], (2,)),
], ids=["verify-2d", "verify-3d", "verify-d4", "pick", "reflexive", "psd"])
def test_each_command_derives_each_rank_once(args, ranks, capsys, monkeypatch):
    # each request asks for its ranks in one h call, and the checks share
    # those h instead of deriving them again: no polynomial is built from
    # the polytope behind them
    calls = []
    derive = ehrhart.hr_vectors

    def counted(p, asked):
        calls.append(tuple(asked))
        return derive(p, asked)

    def refuse(p, r):
        raise AssertionError("polynomial derived from the polytope again")

    monkeypatch.setattr(ehrhart, "hr_vectors", counted)
    for module in (ehrhart, positivity):
        # positivity reads its polynomials off an h and does not import the
        # name; it is refused there all the same
        monkeypatch.setattr(module, "ehrhart_tensor_polynomial", refuse, raising=False)
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert calls == [ranks]


@pytest.mark.parametrize("dim, bound, seed", [(2, 6, 1), (3, 2, 1), (4, 2, trial_seed(42, 95))],
                         ids=["verify-2d", "verify-3d", "verify-d4"])
def test_verify_builds_each_oracle_and_volume_once(dim, bound, seed, capsys, monkeypatch):
    # one oracle call serves reciprocity at n = 1, 2, 3 and h-top for ranks
    # 0..2.  Below dim 4 it is one h per rank from the closed moments and
    # the volume and facet sums.  From dim 4
    # on it is one half-open decomposition of the boundary point on the most
    # faces coned over the boundary faces whose plane misses it (5 cells on
    # the finding, against 7 from its first point): one Newton kernel call of
    # rank 2 with one column per cell, over the 8 distinct vertices of the
    # cells (25 cell corners), and per cell one box and one box moment
    # pass, of rank 2.  The volume and facet moments of ranks 0..2 are one
    # Newton kernel call over the boundary faces, which keep their lattice
    # volumes and planes, so no hull is built again; the cells take their
    # barycentric rows from one inverse each and do not check their vertices
    # again.  The oracle reads both sums below dim 4, verify's checks the
    # volume sum for dim <= 3 and the facet sum in 2D, and the h route both
    # from dim 4 on.  Rank 3 makes one pass of its own.
    p = polytopes.polytope_from_json(json.loads(random_request(dim, bound, seed)))
    points, boundary = p.boundary
    monkeypatch.setattr(cli, "polytope_from_json", lambda data: p)

    def counted(module, name):      # records the last argument of each call
        calls, route = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(a[-1]) or route(*a))
        return calls

    oracles = counted(ehrhart, "_closed_moment_oracle")
    decompositions = counted(ehrhart, "half_open_decomposition")
    boxes = counted(ehrhart, "box_slices")
    parts = record_calls(monkeypatch, halfopen, "_newton_columns")
    box_moments = counted(halfopen.BoxSlices, "moments")
    hulls = counted(polytopes, "placing_triangulation")
    hull_inverses = counted(polytopes, "int_inverse")
    cell_checks = counted(linalg, "affine_basis")
    passes = record_calls(monkeypatch, ehrhart, "_newton_columns")
    code, out, _ = run_cli(["verify", "--json", "{}"], capsys)
    assert code == 0 and json.loads(out)["all_pass"] is True
    if dim < 4:
        assert oracles == [0, 1, 2]
        assert decompositions == boxes == parts == box_moments == []
    else:
        apex = max(points, key=lambda x: sum(x in map(points.__getitem__, face)
                                             for face, _, _ in boundary))
        coned = [face for face, (normal, rhs), _ in boundary
                 if sum(a * x for a, x in zip(normal, apex)) != rhs]
        assert oracles == []
        assert [[s[1:] for s in d] for d in decompositions] == [coned]
        assert len(coned) == 5 and all(s[0] == points.index(apex) for s in decompositions[0])
        assert len(boxes) == len(coned)
        assert [(c["r"], len(c["faces"])) for c in parts] == [(2, len(coned))]
        distinct = {i for s in decompositions[0] for i in s}
        assert len(parts[0]["vertices"]) == len(distinct) == 8
        assert box_moments == [2] * len(coned)
    assert [(c["r"], len(c["faces"])) for c in passes] == [(2, len(boundary))]
    for r in range(4):
        ehrhart.moment_tensor(p, r)
        ehrhart.second_coefficient_facets(p, r)
    assert [(c["r"], len(c["faces"])) for c in passes] == [(2, len(boundary)), (3, len(boundary))]
    assert hulls == hull_inverses == cell_checks == []


# Each check of `verify` on a polygon, with a function on its side that does
# not read the shared h.  Checks that share a route flip together.  The volume
# and facet checks meet h with the integer sums (`_simplex_sums`) that
# moment_tensor and second_coefficient_facets divide: their rows perturb the
# sum of their rank, and the function moves with it.
SECOND_ROUTES = [
    *[(f"reciprocity_r{r}", ehrhart, "discrete_moment_interior") for r in (0, 1, 2)],
    *[(f"leading_coefficient_is_volume_moment_r{r}", ehrhart, "moment_tensor") for r in (0, 1, 2)],
    *[(f"second_coefficient_facet_sum_r{r}", ehrhart, "second_coefficient_facets")
      for r in (0, 1, 2)],
    *[(f"h_sum_is_normalized_volume_moment_r{r}", ehrhart, "moment_tensor") for r in (0, 1, 2)],
    *[(f"h_top_is_interior_moment_r{r}", ehrhart, side)
      for r in (0, 1, 2) for side in ("_closed_moment_oracle", "discrete_moment_interior")],
    ("pick_h1_agrees", triangulation, "h1_pick"),
    ("pick_h2_agrees", triangulation, "h2_pick"),
    ("pick_vector_polynomial_agrees", triangulation, "ehrhart_vector_pick"),
    ("pick_matrix_polynomial_agrees", triangulation, "ehrhart_matrix_pick"),
    ("h2_entries_psd", positivity, "classify_definiteness"),
]
SUMS = {"moment_tensor": 0, "second_coefficient_facets": 1}


def _perturbed(value):
    if isinstance(value, et.SymTensor):
        return et.SymTensor(value.rank, value.dim, (value.entries[0] + 1,) + value.entries[1:])
    if isinstance(value, et.HrVector):
        return et.HrVector(tuple(_perturbed(e) for e in value.entries))
    if isinstance(value, et.TensorPolynomial):
        return et.TensorPolynomial(tuple(_perturbed(c) for c in value.coeffs))
    assert isinstance(value, et.DefinitenessReport)
    return et.DefinitenessReport("indefinite")


@pytest.mark.parametrize("name, module, side", SECOND_ROUTES,
                         ids=[f"{name}-{side}" for name, _, side in SECOND_ROUTES])
def test_verify_check_meets_a_second_route(name, module, side, capsys, monkeypatch):
    route = getattr(module, side)
    if side in SUMS:
        # 2, not 1, so that the oracle's parity check on the sums still holds
        r, sums = int(name[-1]), ehrhart._simplex_sums

        def perturbed(p, top):
            out = [list(per_rank) for per_rank in sums(p, top)]
            out[SUMS[side]][r] = (out[SUMS[side]][r][0] + 2,) + out[SUMS[side]][r][1:]
            return tuple(map(tuple, out))

        square = polytopes.polytope_from_json(json.loads(SQUARE))
        before = route(square, r)
        monkeypatch.setattr(ehrhart, "_simplex_sums", perturbed)
        assert route(square, r) != before
    else:
        monkeypatch.setattr(module, side, lambda *a: _perturbed(route(*a)))
    code, out, _ = run_cli(["verify", SQUARE], capsys)
    status = dict(line.split() for line in out.splitlines())
    assert code == 1
    assert status.pop("overall") == "FAIL"
    assert status[name] == "FAIL"
    assert set(status) == {n for n, _, _ in SECOND_ROUTES}


@pytest.mark.parametrize("kind", ["volume", "facets"])
@pytest.mark.parametrize("dim, bound", [(1, 6), (2, 6), (3, 2)])
def test_verify_below_d4_fails_on_a_wrong_volume_or_facet_sum(dim, bound, kind, capsys,
                                                              monkeypatch):
    # below dim 4 the oracle's top two entries come from the volume and facet
    # sums: adding 2 to the first entry of either, at every rank, moves
    # h_(m-1) and h_m by m - 1 and 3 - m (V) or by 1 and -1 (F).  Reciprocity
    # fails at every rank and h-top wherever h_m moves; the checks that read
    # the same sum fail with them, and the Pick checks, which do not, pass
    sums, which = ehrhart._simplex_sums, ("volume", "facets").index(kind)

    def perturbed(p, top):
        out = list(sums(p, top))
        out[which] = tuple((ranks[0] + 2,) + ranks[1:] for ranks in out[which])
        return tuple(out)

    monkeypatch.setattr(ehrhart, "_simplex_sums", perturbed)
    code, out, _ = run_cli(["verify", random_request(dim, bound, 1)], capsys)
    status = dict(line.split() for line in out.splitlines())
    expected = {"overall", *(f"reciprocity_r{r}" for r in range(3)),
                *(f"h_top_is_interior_moment_r{r}" for r in range(3)
                  if kind == "facets" or dim + r != 3)}
    if kind == "volume":
        expected |= {f"{name}_r{r}" for r in range(3) for name in (
            "leading_coefficient_is_volume_moment", "h_sum_is_normalized_volume_moment")}
    elif dim == 2:
        expected |= {f"second_coefficient_facet_sum_r{r}" for r in range(3)}
    assert code == 1
    assert {name for name, ok in status.items() if ok == "FAIL"} == expected


VERIFY_REQUESTS = [(1, 6, 1), (2, 6, 1), (3, 2, 1), (4, 2, trial_seed(42, 95)), (5, 1, 1)]


@pytest.mark.parametrize("dim, bound, seed", VERIFY_REQUESTS)
def test_verify_expands_whole_polynomials_only_in_2d(dim, bound, seed, capsys, monkeypatch):
    # below d = 4 the volume and facet checks meet h's integer sums with V and
    # F, so verify divides neither into moment_tensor or
    # second_coefficient_facets, and only the Pick checks at d = 2 expand
    # whole polynomials, of ranks 1 and 2; from d = 4 on production reads the
    # sums, so verify runs no volume check.  The output does not move either way
    request = random_request(dim, bound, seed)
    _, want, _ = run_cli(["verify", "--json", request], capsys)
    polys = record_calls(monkeypatch, ehrhart, "hr_vector_to_polynomial")
    expansions = record_calls(monkeypatch, ehrhart, "_binomial_expansion")
    divided = [record_calls(monkeypatch, ehrhart, name)
               for name in ("moment_tensor", "second_coefficient_facets")]
    code, out, _ = run_cli(["verify", "--json", request], capsys)
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert out == want
    assert [c["h"].rank for c in polys] == ([1, 2] if dim == 2 else [])
    assert [c["m"] for c in expansions] == ([3, 4] if dim == 2 else [])
    assert divided == [[], []]


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("r", (0, 1, 2))
@pytest.mark.parametrize("dim, bound, seed", VERIFY_REQUESTS[:4])
def test_verify_reciprocity_fails_at_the_one_wrong_interior_moment(dim, bound, seed, r, n,
                                                                   capsys, monkeypatch):
    # one reciprocity pass per rank compares n = 1, 2, 3 with the interior
    # moments: a wrong L^r(nP°) fails reciprocity_r{r} alone, and h-top of
    # rank r with it at n = 1, which reads L^r(P°) too; reciprocity_check
    # fails at that n and no other
    request = random_request(dim, bound, seed)
    interior = ehrhart.discrete_moment_interior
    monkeypatch.setattr(ehrhart, "discrete_moment_interior", lambda p, rank, k: (
        _perturbed(interior(p, rank, k)) if (rank, k) == (r, n) else interior(p, rank, k)))
    code, out, _ = run_cli(["verify", request], capsys)
    status = dict(line.split() for line in out.splitlines())
    assert code == 1
    assert {name for name, ok in status.items() if ok == "FAIL"} == {
        "overall", f"reciprocity_r{r}", *[f"h_top_is_interior_moment_r{r}"] * (n == 1)}
    p = polytopes.polytope_from_json(json.loads(request))
    assert [ehrhart.reciprocity_check(p, r, k) for k in (1, 2, 3)] == [k != n for k in (1, 2, 3)]


def test_verify_d4_reads_the_halfopen_oracle(capsys, monkeypatch):
    # from dim 4 on reciprocity and h-top read the half-open h: perturbing
    # its rank-2 vector fails exactly their rank-2 checks on the finding
    sums = ehrhart._hr_sums
    monkeypatch.setattr(ehrhart, "_hr_sums", lambda cells, ranks: [
        _perturbed(h) if h.rank == 2 else h for h in sums(cells, ranks)])
    code, out, _ = run_cli(["verify", random_request(4, 2, trial_seed(42, 95))], capsys)
    status = dict(line.split() for line in out.splitlines())
    assert code == 1
    assert {name for name, ok in status.items() if ok == "FAIL"} \
        == {"reciprocity_r2", "h_top_is_interior_moment_r2", "overall"}
    assert len(status) == 7


D5_REQUEST = random_request(5, 1, 1)


def test_a_d5_row_of_cells_and_closed_moments_moves_every_call(capsys, monkeypatch):
    # ehrhart.ROUTES alone pairs production with an oracle.  With the shipped
    # table verify's production reads the volume and facet sums at d = 5, so
    # it runs no volume check, and its output is the one pinned here.  Set the
    # d = 5 row to the half-open cells as production and the closed moments as
    # oracle: h of ranks 0..3 is the same, production scans no dilate and makes
    # one decomposition, the oracle makes none, and verify, whose production
    # now reads neither sum, adds the volume checks and still passes
    shipped = ehrhart.hr_vectors(polytopes.polytope_from_json(json.loads(D5_REQUEST)), range(4))
    code, out, _ = run_cli(["verify", "--json", D5_REQUEST], capsys)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == \
        "fb8afd52ff6ff9e94d53b2e5fbc930cb3a14096dfbfb1b3ad59079b527ad6648"
    monkeypatch.setattr(ehrhart, "ROUTES", ehrhart.ROUTES + (
        (5, ehrhart.HALFOPEN_CELLS, ehrhart.CLOSED_MOMENTS), (6, *ehrhart.routes(6))))
    scans = record_calls(monkeypatch, ehrhart, "dilate_rows")
    decompositions = record_calls(monkeypatch, ehrhart, "half_open_decomposition")
    closed = record_calls(monkeypatch, ehrhart, "_closed_moment_oracle")
    assert ehrhart.hr_vectors(polytopes.polytope_from_json(json.loads(D5_REQUEST)), range(4)) \
        == shipped
    assert scans == closed == [] and len(decompositions) == 1
    decompositions.clear()
    assert ehrhart._oracle(polytopes.polytope_from_json(json.loads(D5_REQUEST)), range(4)) \
        == shipped
    assert [c["r"] for c in closed] == [0, 1, 2, 3] and decompositions == []
    code, out, _ = run_cli(["verify", "--json", D5_REQUEST], capsys)
    report = json.loads(out)
    assert code == 0 and report["all_pass"] is True
    volume_checks = {f"{name}_r{r}" for r in range(3) for name in (
        "leading_coefficient_is_volume_moment", "h_sum_is_normalized_volume_moment")}
    assert volume_checks <= {c["name"] for c in report["checks"]}
    assert len(report["checks"]) == 6 + len(volume_checks)


@pytest.mark.parametrize("seed", [None, 4701], ids=["unit_square", "seeded_polygon"])
def test_a_d2_row_whose_production_reads_the_sums_still_verifies(seed, capsys, monkeypatch):
    # with a d = 2 production that reads the volume and facet sums, verify runs
    # neither the volume checks nor the facet-sum check, and the Pick
    # polynomial checks still read the production polynomial
    request = SQUARE if seed is None else random_request(2, 6, seed)
    monkeypatch.setattr(ehrhart, "ROUTES", ((0, ehrhart.SCAN_WITH_SUMS, ehrhart.HALFOPEN_CELLS),))
    code, out, _ = run_cli(["verify", "--json", request], capsys)
    report = json.loads(out)
    assert code == 0 and report["all_pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert {"pick_vector_polynomial_agrees", "pick_matrix_polynomial_agrees"} <= set(names)
    assert not [n for n in names if n.startswith(("leading_", "second_", "h_sum_"))]
    assert len(names) == 11


@pytest.mark.parametrize("d", range(1, 6))
def test_moments_past_the_scanned_dilates_evaluate_the_polynomial(d, capsys, monkeypatch):
    # above n = ceil(m/2), m = d + r, `moments` evaluates the polynomial of the
    # production h, which scans no dilate past ceil(m/2), instead of scanning
    # nP; below it scans nP.  Either way it prints the scan's moment
    p = et.random_lattice_polytope(d, {1: 6, 2: 3, 3: 2}.get(d, 1), d + 2, seed=4650 + d)
    request = json.dumps(et.polytope_to_json(p))
    scans = record_calls(monkeypatch, ehrhart, "dilate_rows")
    for r in range(4):
        half = -(-(d + r) // 2)
        for n in range(d + r + 3):
            scans.clear()
            code, out, _ = run_cli(["moments", request, "--r", str(r), "--n", str(n)], capsys)
            assert code == 0
            read = [c["n"] for c in scans]
            if n > half:
                assert max(read, default=0) <= half, (r, n)
            else:
                assert read == [n] * (n > 0), (r, n)
            assert json.loads(out) == {"r": r, "n": n, "dim": d, "moment": tensor_to_json(
                ehrhart.discrete_moment(p, r, n))}, (r, n)


def test_verify_table_mode(capsys):
    code, out, _ = run_cli(["verify", SQUARE], capsys)
    assert code == 0
    assert "pass" in out
    assert "FAIL" not in out


def test_malformed_input_exit_code(capsys):
    code, out, _ = run_cli(["moments", '{"vertices": "nope"}'], capsys)
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("command, data", [
    ("hvec", '{"vertices": [[0,0],[1.9,0],[0,1]]}'),
    ("hvec", '{"vertices": [[0,0],[true,0],[0,1]]}'),
    ("halfopen", '{"vertices": [[0,0],[1,0],[0,1]], "removed": [0.7]}'),
    ("hvec", '{"dim": 2.9, "vertices": [[0,0],[1,0],[0,1]]}'),
    ("hvec", '{"vertices": [[]]}'),
    ("hvec", '{"vertices": [[], []]}'),
    ("halfopen", '{"vertices": []}'),
    ("halfopen", '{"vertices": [[0,0],[1,0],[0,1,2]]}'),
    ("halfopen", '{"vertices": [[0,0,0],[1,0,0],[0,1,0],[1,1,0]]}'),
])
def test_non_integer_input_exit_code(command, data, capsys):
    code, out, _ = run_cli([command, data], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed_input"


def test_deeply_nested_input_is_malformed(capsys, tmp_path):
    # past the parser's recursion limit: a typed error, not a traceback with
    # the exit code of failed checks
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, _ = run_cli(["hvec", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed_input"


def test_input_integer_over_the_digit_limit_is_malformed(capsys):
    code, out, _ = run_cli(["hvec", '{"vertices": [[0], [1%s]]}' % ("0" * 5000)], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed_input"


def test_answer_over_the_digit_limit_is_exact(capsys):
    # sum_(t=0..N) t^3 = (N(N+1)/2)^2 has about 4,800 digits for N = 10^1200;
    # the digit limit holds again once main returns
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    n = 10 ** 1200
    code, out, _ = run_cli(["moments", '{"vertices": [[0], [%d]]}' % n, "--r", "3"], capsys)
    assert code == 0
    assert json.loads(out)["moment"] == {"0,0,0": str(Decimal((n * (n + 1) // 2) ** 2))}
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_negative_trial_count_exit_code(capsys):
    code, out, _ = run_cli(["scan", "--trials", "-3", "--dim", "2"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid_arguments"
    code, out, _ = run_cli(["scan", "--trials", "0", "--dim", "2"], capsys)
    assert code == 0
    assert json.loads(out)["completed"] == 0


def test_degenerate_input_exit_code(capsys):
    for vertices, affine_dim in (("[[0,0],[1,1],[2,2]]", 1), ("[[1,1],[1,1]]", 0)):
        code, out, _ = run_cli(["moments", '{"vertices": %s}' % vertices], capsys)
        assert code == 3
        data = json.loads(out)
        assert data["error"]["kind"] == "degenerate_polytope"
        assert data["error"]["affine_dim"] == affine_dim


def test_table_mode_aligned_matrix(capsys):
    code, out, _ = run_cli(["moments", "--r", "2", "--n", "1", "--table",
                            TRIANGLE_51], capsys)
    assert code == 0
    assert "[" in out and "121" in out


def test_entry_point_runs_as_module():
    proc = subprocess.run([sys.executable, "-m", "ehrtensor.cli", "moments",
                           "--r", "0", "--n", "2", SQUARE],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["moment"] == "9"
