"""Tests of the benchmark's own parts: oracles, span arithmetic, workloads
and metric names.  Run from the repository root with

    python -m pytest bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

from kfock import builders  # noqa: E402
from kfock.fock import TruncatedFock  # noqa: E402
from kfock.kgraph import validate  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def graph(text):
    return builders.builtin_graph(text.split())


@pytest.mark.parametrize("text,trunc", [
    ("cycle 3 2", 8), ("product f2 f3", 5), ("product f2 c2 f1", 4),
    ("chain 4", 5), ("single-vertex 2 2 seed:3", 6), ("cycle 4 3", 4),
])
def test_census_equals_basis_dimension(text, trunc):
    assert oracles.path_census(graph(text), trunc) == TruncatedFock(graph(text), trunc).dimension


def test_census_of_sv22_has_closed_form():
    # 2^t paths of each of the t+1 degrees of grading t
    expected = sum((t + 1) * 2 ** t for t in range(13))
    assert oracles.path_census(graph("single-vertex 2 2 cyclic"), 12) == expected == 98305


@pytest.mark.parametrize("shape", [(2, 1, 1), (2, 2, 1), (1, 2, 2)])
def test_critical_pairs_agree_with_validate_on_seeded_tables(shape):
    for seed in range(8):
        g = builders.single_vertex(shape, builders.random_table(shape, seed))
        assert oracles.is_kgraph(g) == validate(g, 4).ok, seed


def test_critical_pairs_on_fixed_graphs():
    assert oracles.is_kgraph(graph("cycle 4 3"))
    assert oracles.is_kgraph(graph("product f2 f3"))
    assert oracles.is_kgraph(graph("single-vertex 2 2 seed:5"))
    assert not oracles.is_kgraph(graph("single-vertex 2 2 2 cyclic"))
    g = graph("single-vertex 2 2 cyclic")
    broken = type(g)(g.k, g.vertices, g.edges, g.squares[1:])
    assert not oracles.is_kgraph(broken)


def test_seeded_k3_tables_include_invalid_ones():
    shape = (2, 2, 1)
    verdicts = {oracles.is_kgraph(builders.single_vertex(shape, builders.random_table(shape, s)))
                for s in range(12)}
    assert verdicts == {True, False}


def test_nc_edges():
    assert oracles.nc_edges(graph("chain 3")) == ["a1", "a2", "b1", "b2"]
    assert oracles.nc_edges(graph("product f3 f2 c2")) == []


def test_layer_times_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 8.0, 3],
    ]
    calls, self_s, total_s = tracer.layer_times(spans)
    assert calls == {"a": 2, "b": 2, "c": 1}
    assert self_s == {"a": 3.0 + 2.0, "b": 2.0 + 2.0, "c": 1.0}
    assert total_s == {"a": 10.0, "b": 7.0, "c": 1.0}


def test_wrap_records_parents():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in t.spans] == [("outer", -1), ("inner", 0)]
    assert t.spans[0][1] <= t.spans[1][1] <= t.spans[1][2] <= t.spans[0][2]


def test_patched_restores_every_name():
    from kfock import cli, fock, kgraph

    before = (kgraph.validate, cli.validate, fock.left_op, fock.TruncatedFock.__init__)
    with tracer.Tracer().patched():
        assert cli.validate is kgraph.validate is not before[0]
    assert (kgraph.validate, cli.validate, fock.left_op, fock.TruncatedFock.__init__) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_depend_only_on_seed(name):
    make = workloads.WORKLOADS[name]
    assert [c.argv for c in make(3)] == [c.argv for c in make(3)]
    assert [c.argv[0] for c in make(3)] == [c.argv[0] for c in make(4)]


def test_validate_sweep_takes_both_verdict_paths():
    for seed in range(4):
        rcs = [c.expect_rc for c in workloads.validate_sweep(seed) if c.name == "validate"]
        assert rcs[3:] == [0, 2, 2]


def test_check_reports_mismatches():
    cmd = workloads.Command(["validate", "chain", "3"], 0, {"ok": True})
    ok_report = json.dumps({"validation": {"ok": True}})
    assert workloads.check(cmd, 0, ok_report) == []
    assert workloads.check(cmd, 2, ok_report)
    assert workloads.check(cmd, 0, json.dumps({"validation": {"ok": False}}))


def test_traced_passes_give_every_metric_and_repeat_counts(tmp_path):
    commands = [
        workloads._fock(["cycle", "3", "2"], 4, ["e1"]),
        workloads._validate(["product", "f2", "f3"], 3),
        workloads._analyze(["chain", "3"]),
        workloads.Command(["gelfand", "single-vertex", "1", "1", "id", "--samples", "1",
                           "--trunc", "12"], 0, {"samples": 1}),
    ]
    passes = [worker.run_pass(commands, str(tmp_path))]
    for _ in range(2):
        t = tracer.Tracer()
        with t.patched():
            p = worker.run_pass(commands, str(tmp_path), t)
        p.update(traced=True, layers=worker.layer_stats(t))
        passes.append(p)
    passes[0]["traced"] = False
    assert [p["errors"] for p in passes] == [[], [], []]
    assert run.pass_count_errors(passes[1:]) == []

    result = {"passes": passes, "setup_samples_s": [0.5], "peak_rss_mb": 50.0,
              "calibration_s": 0.1}
    values = {m["name"]: run.metric_value(m["name"], result)
              for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    measured = {name.rpartition(".")[0] for name in values}
    assert tracer.LAYER_NAMES <= measured
    for layer in tracer.LAYER_NAMES:
        assert passes[1]["layers"][f"{layer}.calls"] > 0, layer


def test_unknown_metric_is_refused():
    with pytest.raises(KeyError):
        run.metric_value("fock.left_op.nzz", {"passes": [{"traced": True, "layers": {}}]})


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fock-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
