"""Text format round trips, CLI subcommands, exit codes, and determinism."""

import json

import pytest

from kfock import builders, cli, dsl
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
