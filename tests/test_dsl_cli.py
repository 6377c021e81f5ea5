"""Text format round trips, CLI subcommands, exit codes, and determinism."""

import json

import numpy as np
import pytest

from conftest import oracle_basis_size
from kfock import builders, cli, dsl, errors, fock, gelfand
from kfock.errors import SpecSyntaxError
from kfock.kgraph import validate

CYCLE_SPEC = """\
# rank-2 cycle on three vertices
colors 2
vertex x1 x2 x3
edge e1 : 1 x1 -> x2
edge e2 : 1 x2 -> x3
edge e3 : 1 x3 -> x1
edge f1 : 2 x1 -> x2
edge f2 : 2 x2 -> x3
edge f3 : 2 x3 -> x1
relation f2 e1 = e2 f1
relation f3 e2 = e3 f2
relation f1 e3 = e1 f3
"""


def test_parse_cycle_spec():
    g = dsl.parse_spec(CYCLE_SPEC)
    assert g.k == 2 and len(g.edges) == 6 and len(g.squares) == 3
    assert validate(g, 4).ok
    ref = builders.cycle_rank(3, 2)
    assert {e for e in g.edges} == {e for e in ref.edges}
    assert set(g.squares) == set(ref.squares)


def test_roundtrip_through_serializer():
    for g in (builders.cycle_rank(3, 2), builders.chain(4),
              builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2)))):
        again = dsl.parse_spec(dsl.serialize(g))
        assert {e for e in again.edges} == {e for e in g.edges}
        assert set(again.squares) == set(g.squares)
        assert again.vertices == g.vertices


def test_relation_normal_side_detected_either_way():
    base = """colors 2
vertex v
edge a : 1 v -> v
edge b : 2 v -> v
"""
    one = dsl.parse_spec(base + "relation b a = a b\n")
    two = dsl.parse_spec(base + "relation a b = b a\n")
    assert one.squares == two.squares
    assert one.squares[0].lhs == ("a", "b")


@pytest.mark.parametrize("line,msg", [
    ("relation a a2 = a2 a", "mix two colors"),
    ("relation b a = b a", "opposite color orders"),
    ("edge c : 9 v -> v", "outside"),
    ("edge z : 1 v -> w", "unknown vertex"),
    ("wat is this", "unknown directive"),
])
def test_parse_errors_carry_line_numbers(line, msg):
    base = "colors 2\nvertex v\nedge a : 1 v -> v\nedge a2 : 1 v -> v\nedge b : 2 v -> v\n"
    with pytest.raises(SpecSyntaxError, match=msg) as exc:
        dsl.parse_spec(base + line + "\n")
    assert exc.value.line == 6


def test_relation_endpoint_check():
    text = """colors 2
vertex u v w
edge a : 1 u -> v
edge b : 2 v -> w
edge c : 2 u -> v
edge d : 1 v -> w
relation b a = b a
"""
    with pytest.raises(SpecSyntaxError):
        dsl.parse_spec(text)


def test_cli_validate_ok(tmp_path):
    spec = tmp_path / "c.kg"
    spec.write_text(CYCLE_SPEC)
    out = tmp_path / "rep.json"
    assert cli.main(["validate", str(spec), "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["validation"]["ok"] is True
    assert rep["command"] == "validate"


def test_cli_validate_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.kg"
    bad.write_text("colors 2\nvertex v\nedge a : 1 v -> v\nedge b : 2 v -> v\n")
    assert cli.main(["validate", str(bad)]) == 2


ERROR_EXITS = {
    errors.SpecSyntaxError: 1, errors.ConstructionError: 1,
    errors.DomainError: 1, errors.CompositionError: 1,
    errors.MalformedGraphError: 2, errors.BudgetError: 2,
    errors.UnsupportedGraphError: 2,
}


@pytest.mark.parametrize("error,code", ERROR_EXITS.items(),
                         ids=lambda x: getattr(x, "__name__", x))
def test_cli_exit_code_of_each_library_error(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_example", fail)
    assert cli.main(["example", "chain", "3"]) == code
    assert json.loads(capsys.readouterr().out)["error"] == error.__name__


def test_cli_exit_codes_cover_every_library_error():
    assert set(ERROR_EXITS) == set(errors.KFockError.__subclasses__())


def test_cli_usage_error_exit_code(capsys):
    assert cli.main(["validate", "mystery", "graph"]) == 1
    assert cli.main(["frobnicate"]) == 1


def test_cli_analyze_builtin(tmp_path):
    out = tmp_path / "an.json"
    assert cli.main(["analyze", "chain", "3", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    s = rep["structure"]
    assert s["semisimple"] is False
    assert s["ncEdges"] == ["a1", "a2", "b1", "b2"]
    assert s["nilpotencyBound"] == 3
    out2 = tmp_path / "an2.json"
    assert cli.main(["analyze", "cycle", "3", "2", "--json", str(out2)]) == 0
    assert json.loads(out2.read_text())["structure"]["semisimple"] is True


def test_cli_analyze_graph_with_more_cycles_than_the_listing_cap(tmp_path):
    spec = tmp_path / "xyz.kg"
    spec.write_text("colors 1\nvertex x y z\nedge a : 1 x -> y\n"
                    + "".join(f"edge b{i} : 1 y -> z\nedge c{i} : 1 z -> y\n"
                              for i in range(1, 5))
                    + "edge d : 1 z -> x\n")
    out = tmp_path / "an.json"
    assert cli.main(["analyze", str(spec), "--json", str(out)]) == 0
    dpc = json.loads(out.read_text())["structure"]["doublePureCycle"]
    assert (dpc["vertex"], dpc["color"]) == ("x", 1)
    assert dpc["cycles"] == [["d", "b1", "a"], ["d", "b2", "a"]]


def test_cli_fock_exports(tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(["fock", "cycle", "3", "2", "--trunc", "4",
                     "--op", "e1", "--out", str(tmp_path), "--json", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert rep["checks"]["commutantResidual"] == 0
    mtx = (tmp_path / "e1.mtx").read_text().splitlines()
    assert "complex general" in mtx[0]
    assert (tmp_path / "basis.tsv").exists()
    # 0/1 entries landing in the (2,1) vertex-block shift position
    import scipy.io

    from kfock import fock as _fock

    mat = scipy.io.mmread(str(tmp_path / "e1.mtx")).tocoo()
    assert set(mat.data) == {1 + 0j}
    g = builders.cycle_rank(3, 2)
    space = _fock.TruncatedFock(g, 4)
    for r, c in zip(mat.row, mat.col):
        assert space.basis[r].dst == "x2" and space.basis[c].dst == "x1"


def test_cli_fock_symbol_grading_is_word_length(tmp_path):
    out = tmp_path / "rep.json"
    assert cli.main(["fock", "cycle", "3", "2", "--trunc", "3", "--op", "e1",
                     "--op", "f2 e1", "--out", str(tmp_path), "--json", str(out)]) == 0
    ops = json.loads(out.read_text())["operators"]
    assert [(o["word"], o["symbolGrading"]) for o in ops] == [(["e1"], 1), (["f2", "e1"], 2)]


def test_cli_fock_op_splits_on_commas_only_outside_edge_ids(tmp_path):
    out = tmp_path / "rep.json"
    assert cli.main(["fock", "product", "f2", "c2", "f1", "--trunc", "3",
                     "--op", "e1.1(x1,v)", "--op", "e1.2(v,v) e1.1(x1,v)",
                     "--out", str(tmp_path), "--json", str(out)]) == 0
    ops = json.loads(out.read_text())["operators"]
    assert [o["word"] for o in ops] == [["e1.1(x1,v)"], ["e1.2(v,v)", "e1.1(x1,v)"]]
    assert (tmp_path / "e1.2(v,v)_e1.1(x1,v).mtx").exists()
    assert cli.main(["fock", "cycle", "3", "2", "--trunc", "3", "--op", "f2,e1",
                     "--out", str(tmp_path), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["operators"][0]["word"] == ["f2", "e1"]


@pytest.mark.parametrize("edge,ops", [
    ("../escape", ["../escape"]),
    ("a/b", ["a/b"]),
    ("../escape", ["good", "../escape"]),
], ids=["parent", "subdirectory", "good-then-bad"])
def test_cli_fock_refuses_an_export_name_outside_out(tmp_path, monkeypatch, capsys, edge, ops):
    # a spec file may put any non-blank character in an edge id, and ids name the files
    work = tmp_path / "work"
    work.mkdir()
    (work / "g.kg").write_text(f"colors 1\nvertex v\nedge good : 1 v -> v\n"
                               f"edge {edge} : 1 v -> v\n")
    monkeypatch.chdir(work)
    argv = ["fock", "g.kg", "--trunc", "2", "--out", "out"]
    assert cli.main(argv + [x for op in ops for x in ("--op", op)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {"error": "DomainError",
                      "message": f"export name '{edge}.mtx' is not a file name in --out"}
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file())
    assert written == ["work/g.kg"]  # refused before --out is made: no manifest, no good.mtx
    assert cli.main(argv + ["--op", "good"]) == 0
    assert (work / "out" / "good.mtx").is_file()


@pytest.mark.parametrize("ops,message", [
    (["e1.1(x1,v,x1)"],
     "--op token 'e1.1(x1,v,x1)' is neither an edge id nor edge ids joined by commas"),
    (["e1.1(v,x1)", "e1.1(v,x1) e1.1(v,x1),zz"],
     "--op token 'e1.1(v,x1),zz' is neither an edge id nor edge ids joined by commas"),
    (["e1.1(v,x1)", "e1.1(v,x1) e1.1(v,x1)"],
     "edges 'e1.1(v,x1)' -> 'e1.1(v,x1)' do not compose"),
    ([""], "--op '' names no edge"),
    (["e1.1(v,x1)", ","], "--op ',' names no edge"),
], ids=["not-an-edge", "second-op", "not-composable", "empty", "commas-only"])
def test_cli_fock_checks_every_op_before_writing(tmp_path, monkeypatch, capsys, ops, message):
    monkeypatch.chdir(tmp_path)
    argv = ["fock", "product", "c2", "f2", "c3", "--trunc", "4", "--out", "out"]
    assert cli.main(argv + [x for op in ops for x in ("--op", op)]) == 1
    assert json.loads(capsys.readouterr().out)["message"] == message
    assert not (tmp_path / "out").exists()  # so no basis.tsv and no .mtx of a good --op


def test_cli_reused_parser_keeps_calls_apart(tmp_path):
    """One process, two fock calls: each exports only its own --op list."""
    runs = {"a": ["e1", "f2 e1"], "b": ["f1"]}
    for name, ops in runs.items():
        argv = ["fock", "cycle", "3", "2", "--trunc", "3", "--out", str(tmp_path / name),
                "--json", str(tmp_path / f"{name}.json")]
        assert cli.main(argv + [x for op in ops for x in ("--op", op)]) == 0
    for name, ops in runs.items():
        words = [op.split() for op in ops]
        assert [o["word"] for o in json.loads((tmp_path / f"{name}.json").read_text())
                ["operators"]] == words
        assert sorted(f.name for f in (tmp_path / name).glob("*.mtx")) == sorted(
            "_".join(w) + ".mtx" for w in words)


def test_cli_max_grading_defaults_are_echoed(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert cli.main(["validate", "cycle", "3", "2", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["validation"]["maxGrading"] == 8
    capsys.readouterr()
    assert cli.main(["analyze", "single-vertex", "2", "2", "2", "cyclic"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["validation"]["ok"] is False and rep["validation"]["maxGrading"] == 6


def test_cli_gelfand_refuses_an_oversized_basis(capsys):
    # the tail bound picks truncation 12, a basis of 2,375,101 paths; the
    # first assert keeps a raised cap from running the command at that size
    g = builders.builtin_graph(["single-vertex", "2", "3", "cyclic"])
    assert oracle_basis_size(g, 12) > fock.MAX_DIMENSION
    assert cli.main(["gelfand", "single-vertex", "2", "3", "cyclic",
                     "--samples", "2", "--seed", "3"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "BudgetError"


def test_cli_fock_refuses_oversized_edge_tables(tmp_path, capsys):
    # a basis of 70,000 paths; the first assert keeps a raised cap from
    # allocating two tables of 6,000 x 70,001 entries
    assert 6000 * 70_001 > fock.MAX_TABLE_ENTRIES
    assert cli.main(["fock", "cycle", "2000", "3", "--trunc", "4",
                     "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "BudgetError"
    assert not (tmp_path / "basis.tsv").exists()  # refused before the manifest


def test_cli_gelfand_refuses_oversized_multiplicativity_matrices(monkeypatch, capsys):
    # SV(2,2) at N = 12, the largest check in the tests and demos, has
    # matrices of 49 words x 98,305 paths: well under the bound, but not one less
    assert 49 * 98_305 < gelfand.MAX_CHECK_ENTRIES // 4
    monkeypatch.setattr(gelfand, "MAX_CHECK_ENTRIES", 49 * 98_305 - 1)
    assert cli.main(["gelfand", "single-vertex", "2", "2", "cyclic", "--samples", "1",
                     "--seed", "7", "--trunc", "12"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "BudgetError"


def test_cli_gelfand_refuses_oversized_checks_before_building_omega(monkeypatch, capsys):
    # the words x dimension bound is counted for all points at once, before any
    # point's omega is built or its norm and eigen checks run
    built = []
    monkeypatch.setattr(gelfand, "omega_vector", lambda *a: built.append(a))
    monkeypatch.setattr(gelfand, "MAX_CHECK_ENTRIES", 1)
    assert cli.main(["gelfand", "single-vertex", "2", "2", "cyclic", "--samples", "3",
                     "--trunc", "4"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "BudgetError"
    assert built == []


@pytest.mark.parametrize("options,trunc", [
    (["--alpha", "1,0,0,0"], 6),
    (["--alpha", "0.9,0.9,0.1,0.1"], 6),
    (["--samples", "2", "--max-norm", "1.5"], 6),
    (["--samples", "2", "--seed", "7", "--alpha", "0.9,0.9,0.1,0.1"], 11),
], ids=["boundary-alpha", "outside-alpha", "outside-samples", "outside-alpha-and-samples"])
def test_cli_gelfand_reports_points_outside_the_open_ball_unchecked(capsys, options, trunc):
    # the default truncation used to take its norm over these points too and
    # refused them (exit 1), though only points in the open ball get checks
    assert cli.main(["gelfand", "single-vertex", "2", "2", "cyclic", *options]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["trunc"] == trunc and rep["ok"] is True
    outside = [s for s in rep["samples"] if max(s["ballNorms"]) >= 1]
    assert outside and not any("normCheck" in s for s in outside)
    if "--seed" in options:
        assert cli.main(["gelfand", "single-vertex", "2", "2", "cyclic",
                         "--samples", "2", "--seed", "7"]) == 0
        alone = json.loads(capsys.readouterr().out)
        assert alone["trunc"] == trunc and rep["samples"][1:] == alone["samples"]


def test_cli_gelfand_with_no_open_ball_point_runs_no_multiplicativity_check(monkeypatch, capsys):
    # both samples lie outside the open polyball, so no multiplicativity check
    # runs and its words x dimension bound refuses nothing
    argv = ["gelfand", "single-vertex", "2", "2", "cyclic", "--samples", "2",
            "--max-norm", "1.5", "--trunc", "4"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    assert not any("multiplicativity" in s for s in json.loads(want)["samples"])
    monkeypatch.setattr(gelfand, "MAX_CHECK_ENTRIES", 1)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


def test_cli_gelfand_samples(tmp_path):
    out = tmp_path / "g.json"
    code = cli.main(["gelfand", "single-vertex", "2", "2", "cyclic",
                     "--samples", "2", "--seed", "3", "--json", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert len(rep["varietyPolynomials"]) == 4
    for s in rep["samples"]:
        assert s["onVariety"] is True
        assert s["multiplicativity"]["maxResidual"] <= 1e-9


@pytest.mark.parametrize("cmd", ["validate", "analyze", "fock", "gelfand"])
def test_cli_announces_a_failure_report_written_to_json(tmp_path, capsys, monkeypatch, cmd):
    # a graph that fails validation stops every command at the same report
    monkeypatch.chdir(tmp_path)
    assert cli.main([cmd, "single-vertex", "2", "2", "2", "cyclic", "--json", "r.json"]) == 2
    assert capsys.readouterr().out == "report written to r.json\n"
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["command"] == "validate" and report["validation"]["ok"] is False


@pytest.mark.parametrize("option,value,message", [
    ("--samples", "-1", "--samples: must be >= 0"),
    ("--seed", "-1", "--seed: must be >= 0"),
    ("--alpha", "1 2 x", "--alpha: want complex numbers separated by commas or spaces"),
], ids=["samples", "seed", "alpha"])
def test_cli_gelfand_refuses_a_negative_sample_count(capsys, option, value, message):
    assert cli.main(["gelfand", "single-vertex", "2", "2", "cyclic",
                     option, value]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_gelfand_explicit_alpha(tmp_path):
    out = tmp_path / "g.json"
    code = cli.main(["gelfand", "single-vertex", "1", "1", "id",
                     "--alpha", "0.5,0.3", "--trunc", "30",
                     "--json", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    s = rep["samples"][0]
    assert abs(s["normCheck"]["closedForm"] - 1 / (0.75 * 0.91)) < 1e-9


def test_cli_example_roundtrip(tmp_path, capsys):
    spec = tmp_path / "c32.kg"
    assert cli.main(["example", "cycle", "3", "2", "--out", str(spec)]) == 0
    capsys.readouterr()
    g = dsl.parse_spec(spec.read_text())
    assert len(g.edges) == 6
    assert cli.main(["example", "chain", "3"]) == 0
    printed = capsys.readouterr().out
    assert "relation b2 a1 = a2 b1" in printed


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert cli.main(["analyze", "cycle", "3", "2", "--json", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ga, gb = tmp_path / "ga.json", tmp_path / "gb.json"
    for target in (ga, gb):
        assert cli.main(["gelfand", "single-vertex", "2", "2", "cyclic",
                         "--samples", "2", "--seed", "9", "--trunc", "8",
                         "--json", str(target)]) == 0
    assert ga.read_bytes() == gb.read_bytes()


def test_float_formatting_is_clamped():
    from kfock.reports import canonical

    assert canonical(0.1 + 0.2) == 0.3
    assert canonical({"x": (1 / 3,)}) == {"x": [0.333333333333]}
    assert canonical(complex(1 / 7, -2)) == [0.142857142857, -2.0]


def test_canonical_gives_plain_values_and_numpy_subclasses_their_bytes():
    from kfock.reports import canonical

    values = {"b": True, "i": 3, "f": 0.1 + 0.2, "c": complex(1 / 7, -2), "n": None,
              "s": "x", "t": (1, 2.5, [False]), "set": {"b", "a"}, "nan": float("nan"),
              "inf": float("-inf"), "f64": np.float64(1 / 3),
              "c128": np.complex128(1 / 7 - 2j), 3: "key"}
    assert json.dumps(canonical(values)) == (
        '{"b": true, "i": 3, "f": 0.3, "c": [0.142857142857, -2.0], "n": null, "s": "x", '
        '"t": [1, 2.5, [false]], "set": ["a", "b"], "nan": "nan", "inf": "-inf", '
        '"f64": 0.333333333333, "c128": [0.142857142857, -2.0], "3": "key"}')


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), np.arange(3), object()],
                         ids=["bool_", "int64", "ndarray", "object"])
def test_canonical_refuses_a_value_that_is_not_a_report_value(value):
    from kfock.reports import canonical

    with pytest.raises(TypeError, match="not a report value"):
        canonical({"x": [value]})


@pytest.mark.parametrize("options,on_variety,interior", [
    (["--samples", "1", "--seed", "7", "--trunc", "8"], True, True),
    (["--alpha", "0.1,0.1,0.1,0.1", "--trunc", "8"], True, True),
    (["--alpha", "0.1,0.2,0.05,0.3", "--trunc", "8"], False, True),
    (["--alpha", "0,0,1,0", "--trunc", "6"], True, False),
    (["--alpha", "1,0,1,0", "--trunc", "6"], False, False),
], ids=["sampled", "alpha-on-variety", "alpha-off-variety", "boundary-on-variety",
        "boundary-off-variety"])
def test_cli_gelfand_reports_every_kind_of_point(capsys, options, on_variety, interior):
    assert cli.main(["gelfand", "single-vertex", "2", "2", "cyclic", *options]) == 0
    (sample,) = json.loads(capsys.readouterr().out)["samples"]
    assert sample["onVariety"] is on_variety
    assert ("normCheck" in sample) is interior
    assert ("eigenResiduals" in sample) is (on_variety and interior)
    if interior:
        assert sample["multiplicativity"]["onVariety"] is on_variety


@pytest.mark.parametrize("argv", [
    ["validate", "{tmp}"],
    ["validate", "{tmp}/latin1.kg"],
    ["validate", "chain", "3", "--json", "{tmp}/no/r.json"],
    ["fock", "chain", "3", "--trunc", "2", "--out", "{tmp}/taken"],
    ["validate", "cycle", "x", "2"],
    ["validate", "chain", "3.5"],
    ["validate", "single-vertex", "2", "2", "seed:x"],
    ["validate", "single-vertex", "2", "2", "seed:"],
    ["validate", "single-vertex", "2", "2", "seed:-1"],
    ["example", "cycle", "x", "2"],
    ["validate", "product", "f\u00b2"],
], ids=["directory-as-graph", "spec-not-utf8", "json-in-missing-dir", "out-is-a-file",
        "count-not-integer", "count-not-integral", "seed-not-integer", "seed-empty",
        "seed-negative", "example-count-not-integer", "atom-superscript-count"])
def test_cli_unreadable_or_unwritable_path_is_an_error_report(tmp_path, capsys, argv):
    (tmp_path / "latin1.kg").write_bytes("# caf\xe9\ncolors 1\n".encode("latin-1"))
    (tmp_path / "taken").write_text("")
    assert cli.main([x.format(tmp=tmp_path) for x in argv]) == 1
    out, err = capsys.readouterr()
    assert "error" in json.loads(out)
    assert "Traceback" not in err


@pytest.mark.parametrize("option,value", [("--tol", "-1"), ("--tol", "nan"),
                                          ("--max-norm", "nan"), ("--max-norm", "inf")])
def test_cli_gelfand_refuses_a_float_option_that_skips_every_check(capsys, option, value):
    # usage errors are reported on stderr, as for --samples -1
    assert cli.main(["gelfand", "single-vertex", "1", "1", "id", option, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: must be finite and >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "nanj 0.1 0.1 0.1"])
def test_cli_gelfand_refuses_a_coordinate_that_is_not_finite(capsys, value):
    # a NaN coordinate used to print a NaN residual, no failed check and "ok": true
    assert cli.main(["gelfand", "single-vertex", "2", "2", "cyclic", "--trunc", "2",
                     "--alpha", value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --alpha: coordinates must be finite" in err
    assert "Traceback" not in err
