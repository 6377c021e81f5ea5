"""The benchmark's workloads: kfock CLI invocations generated from a seed,
each with the outputs the oracles expect.

The seed reaches the program only through the generated argv (``seed:<S>``
permutation tables and ``--seed S`` sample points); the amount of work does
not depend on it.  Why each workload exists is in README.md.
"""

import json
from dataclasses import dataclass, field

from kfock import builders

import oracles


@dataclass
class Command:
    """One CLI invocation and the result it must produce."""

    argv: list
    expect_rc: int
    expect: dict = field(default_factory=dict)

    @property
    def name(self):
        return self.argv[0]

    def argv_with_out(self, out_dir):
        return self.argv + ["--out", out_dir] if self.name == "fock" else list(self.argv)


def _fock(tokens, trunc, ops=()):
    argv = ["fock", *tokens, "--trunc", str(trunc)]
    for op in ops:
        argv += ["--op", op]
    g = builders.builtin_graph(tokens)
    return Command(argv, 0, {"dimension": oracles.path_census(g, trunc), "operators": len(ops)})


def _validate(tokens, max_grading):
    ok = oracles.is_kgraph(builders.builtin_graph(tokens))
    return Command(["validate", *tokens, "--max-grading", str(max_grading)],
                   0 if ok else 2, {"ok": ok})


def _analyze(tokens):
    g = builders.builtin_graph(tokens)
    return Command(["analyze", *tokens], 0, {"ncEdges": oracles.nc_edges(g)})


def k3_table_seed(shape, start, want_valid):
    """First table seed >= ``start`` whose seeded k=3 table the critical-pair
    oracle judges valid (or invalid), so every run takes both verdict paths
    and the work does not depend on how many drawn tables happen to fail."""
    seed = start
    while oracles.is_kgraph(builders.single_vertex(shape, builders.random_table(shape, seed))) != want_valid:
        seed += 1
    return seed


def gelfand_sv22(seed):
    # --trunc 12 is the worst automatic truncation for --max-norm 0.15.
    tokens = ["single-vertex", "2", "2", "cyclic"]
    argv = ["gelfand", *tokens, "--samples", "2", "--seed", str(seed), "--trunc", "12"]
    return [Command(argv, 0, {"samples": 2})]


def fock_exact(seed):
    return [
        _fock(["product", "f2", "f3"], 5, ["e1.1(v)"]),
        _fock(["single-vertex", "2", "2", f"seed:{seed}"], 6, ["e1_1", "e2_1 e1_2"]),
        _fock(["cycle", "3", "2"], 8, ["e1"]),
        _fock(["product", "f2", "c2", "f1"], 4),
    ]


def validate_sweep(seed):
    valid_seed = k3_table_seed((2, 2, 1), seed, True)
    invalid_seed = k3_table_seed((1, 2, 2), seed + 1, False)
    negative = _validate(["single-vertex", "2", "2", "2", "cyclic"], 5)
    if negative.expect_rc != 2:
        raise RuntimeError("the negative control must be an invalid table")
    return [
        _validate(["product", "f2", "f3"], 7),
        _validate(["single-vertex", "2", "2", f"seed:{seed}"], 8),
        _validate(["cycle", "4", "3"], 8),
        _validate(["single-vertex", "2", "2", "1", f"seed:{valid_seed}"], 6),
        _validate(["single-vertex", "1", "2", "2", f"seed:{invalid_seed}"], 6),
        negative,
        _analyze(["chain", "5"]),
        _analyze(["product", "f3", "f2", "c2"]),
    ]


WORKLOADS = {
    "gelfand-sv22": gelfand_sv22,
    "fock-exact": fock_exact,
    "validate-sweep": validate_sweep,
}


def check(cmd, rc, stdout):
    """Mismatches between a command's exit code and report and the oracle's
    expectation; an empty list means the output is correct."""
    if rc != cmd.expect_rc:
        return [f"exit code {rc}, expected {cmd.expect_rc}"]
    try:
        return _report_mismatches(cmd, json.loads(stdout))
    except ValueError:
        return ["report is not one JSON document"]
    except (KeyError, TypeError) as ex:
        return [f"report lacks {ex}"]


def _report_mismatches(cmd, report):
    errors = []
    if cmd.name == "validate":
        if report["validation"]["ok"] != cmd.expect["ok"]:
            errors.append(f"verdict {report['validation']['ok']}, oracle says {cmd.expect['ok']}")
    elif cmd.name == "analyze":
        if report["structure"]["ncEdges"] != cmd.expect["ncEdges"]:
            errors.append("ncEdges differ from the reachability oracle")
    elif cmd.name == "fock":
        checks = report["checks"]
        if checks["commutantResidual"] != 0:
            errors.append(f"commutant residual {checks['commutantResidual']}")
        if checks["partialIsometryResidual"] != 0:
            errors.append(f"partial isometry residual {checks['partialIsometryResidual']}")
        if checks["sameDegreeConflicts"]:
            errors.append(f"{len(checks['sameDegreeConflicts'])} same-degree range conflicts")
        if report["dimension"] != cmd.expect["dimension"]:
            errors.append(f"dimension {report['dimension']}, census {cmd.expect['dimension']}")
        if len(report["operators"]) != cmd.expect["operators"]:
            errors.append("wrong number of exported operators")
    elif cmd.name == "gelfand":
        samples = report["samples"]
        if len(samples) != cmd.expect["samples"]:
            errors.append(f"{len(samples)} samples, expected {cmd.expect['samples']}")
        errors += [f"sample {i} not ok" for i, s in enumerate(samples) if s.get("ok") is not True]
    return errors
