"""Command line entry points.

Subcommands: validate, analyze, fock, gelfand, example.  A graph argument is
either a path to a spec file or a builtin name with its parameters, e.g.
``cycle 3 2``, ``chain 3``, ``single-vertex 2 2 cyclic``, ``product f2 f3``.

Exit codes: 0 all checks pass, 1 usage or parse error, 2 validation failure,
3 numeric invariant failure.
"""

import argparse
import os
import sys

from . import builders, dsl, fock, gelfand, reports, structure
from .errors import KFockError
from .kgraph import validate

USAGE_EXIT = 1
VALIDATION_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _resolve_graph(tokens):
    """A lone existing file path is parsed; anything else is a builtin name."""
    if len(tokens) == 1 and os.path.exists(tokens[0]):
        with open(tokens[0], "r", encoding="utf-8") as fh:
            return dsl.parse_spec(fh.read()), tokens[0]
    return builders.builtin_graph(tokens), " ".join(tokens)


def _emit(report, json_path):
    reports.dump_report(report, json_path)
    if json_path:
        print(f"report written to {json_path}")


def _cmd_validate(args):
    g, desc = _resolve_graph(args.graph)
    rep = validate(g, max_grading=args.max_grading)
    _emit(reports.envelope("validate", desc, {"validation": rep.to_dict()}),
          args.json)
    return 0 if rep.ok else VALIDATION_EXIT


def _validated(args):
    g, desc = _resolve_graph(args.graph)
    rep = validate(g, max_grading=args.max_grading)
    if not rep.ok:
        reports.dump_report(
            reports.envelope("validate", desc, {"validation": rep.to_dict()}),
            args.json,
        )
        raise SystemExit(VALIDATION_EXIT)
    return g, desc


def _cmd_analyze(args):
    g, desc = _validated(args)
    rep = structure.structure_report(g)
    _emit(reports.envelope("analyze", desc, {"structure": rep.to_dict()}),
          args.json)
    return 0


def _cmd_fock(args):
    g, desc = _validated(args)
    space = fock.TruncatedFock(g, args.trunc)
    os.makedirs(args.out, exist_ok=True)
    manifest = os.path.join(args.out, "basis.tsv")
    fock.write_basis_manifest(space, manifest)

    written = []
    for op_spec in args.op or []:
        word = tuple(op_spec.replace(",", " ").split())
        op = fock.word_op(space, word)
        fname = os.path.join(args.out, "_".join(word) + ".mtx")
        fock.write_matrix_market(op, fname)
        written.append({"word": list(word), "file": fname,
                        "nnz": op.nnz, "symbolGrading": len(word)})

    comm = fock.commutant_residual(space)
    isom = fock.partial_isometry_residual(space)
    conflicts = fock.same_degree_range_conflicts(space)
    ok = comm == 0 and isom == 0 and not conflicts
    _emit(reports.envelope("fock", desc, {
        "trunc": args.trunc,
        "dimension": space.dimension,
        "basisManifest": manifest,
        "operators": written,
        "checks": {
            "commutantResidual": int(comm),
            "partialIsometryResidual": int(isom),
            "sameDegreeConflicts": [
                [list(a.word), list(b.word)] for a, b, _ in conflicts
            ],
        },
        "ok": ok,
    }), args.json)
    return 0 if ok else NUMERIC_EXIT


def _parse_alpha(text):
    return [complex(tok) for tok in text.replace(",", " ").split()]


def _cmd_gelfand(args):
    g, desc = _validated(args)
    polys = [str(b) + " = 0" for b in gelfand.variety_polys(g)]

    points = []
    if args.alpha:
        points.append(gelfand.as_point(g, _parse_alpha(args.alpha)))
    if args.samples:
        points.extend(gelfand.sample_variety_points(
            g, args.samples, seed=args.seed, max_norm=args.max_norm))
    if not points:
        points = gelfand.sample_variety_points(
            g, 3, seed=args.seed, max_norm=args.max_norm)

    norms_sq = max(
        (max((r * r for r in gelfand.ball_norms(g, pt)), default=0.0) for pt in points),
        default=0.0,
    )
    trunc = args.trunc
    if trunc is None:
        trunc = gelfand.character_truncation([norms_sq] * g.k, 3, args.tol)
    space = fock.TruncatedFock(g, trunc)

    sample_reports = []
    ok = True
    for pt in points:
        on_var = gelfand.in_variety(g, pt, args.tol)
        entry = {
            "alpha": [list(part) for part in pt],
            "ballNorms": list(gelfand.ball_norms(g, pt)),
            "varietyResidual": gelfand.variety_residual(g, pt),
            "onVariety": on_var,
        }
        if gelfand.in_ball(g, pt, open_=True):
            entry["normCheck"] = gelfand.omega_norm_check(space, pt)
            mult = gelfand.multiplicativity_check(space, pt, tol=args.tol)
            entry["multiplicativity"] = mult
            if on_var:
                entry["eigenResiduals"] = {
                    e.id: gelfand.eigen_residual(g, e.id, pt, trunc, fock=space)
                    for e in g.edges
                }
                point_ok = (entry["normCheck"]["ok"]
                            and mult["maxResidual"] <= args.tol
                            and max(entry["eigenResiduals"].values(), default=0.0)
                            <= max(args.tol, 1e-12))
                entry["ok"] = point_ok
                ok = ok and point_ok
        sample_reports.append(entry)

    _emit(reports.envelope("gelfand", desc, {
        "trunc": trunc,
        "tol": args.tol,
        "varietyPolynomials": polys,
        "samples": sample_reports,
        "ok": ok,
    }), args.json)
    return 0 if ok else NUMERIC_EXIT


def _cmd_example(args):
    g, desc = builders.builtin_graph(args.name), " ".join(args.name)
    text = f"# builtin: {desc}\n" + dsl.serialize(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"spec written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser():
    p = _Parser(prog="kfock", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def graph_arg(sp):
        sp.add_argument("graph", nargs="+",
                        help="spec file path or builtin tokens")
        sp.add_argument("--max-grading", type=int, default=None,
                        help="accepted and echoed as maxGrading in validate "
                             "reports; the check is complete for every "
                             "grading, so it changes nothing")
        sp.add_argument("--json", default=None, help="write the report here")

    sp = sub.add_parser("validate", help="complete k-graph check: square bijection "
                                           "plus critical-word confluence")
    graph_arg(sp)
    sp.set_defaults(func=_cmd_validate, default_grading=8)

    sp = sub.add_parser("analyze", help="cycle/radical/reflexivity report")
    graph_arg(sp)
    sp.set_defaults(func=_cmd_analyze, default_grading=6)

    sp = sub.add_parser("fock", help="export basis and operator matrices")
    graph_arg(sp)
    sp.add_argument("--trunc", type=int, default=6)
    sp.add_argument("--op", action="append",
                    help="edge id or word, e.g. --op e1 --op 'e2 f1'")
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(func=_cmd_fock, default_grading=6)

    sp = sub.add_parser("gelfand", help="variety, eigenvector, character checks")
    graph_arg(sp)
    sp.add_argument("--trunc", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--alpha", default=None,
                    help="comma/space separated complex coordinates")
    sp.add_argument("--samples", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-norm", type=float, default=0.15)
    sp.set_defaults(func=_cmd_gelfand, default_grading=6)

    sp = sub.add_parser("example", help="emit a canned spec file")
    sp.add_argument("name", nargs="+", help="builtin tokens, e.g. chain 3")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_example)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "max_grading") and args.max_grading is None:
            args.max_grading = args.default_grading
        return args.func(args)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else USAGE_EXIT
    except KFockError as ex:
        reports.dump_report({"error": type(ex).__name__, "message": str(ex)})
        kind = type(ex).__name__
        if kind in ("SpecSyntaxError", "ConstructionError", "DomainError",
                    "CompositionError"):
            return USAGE_EXIT
        return VALIDATION_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
