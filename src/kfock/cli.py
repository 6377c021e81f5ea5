"""Command line entry points.

Subcommands: validate, analyze, fock, gelfand, example.  A graph argument is
either a path to a spec file or a builtin name with its parameters, e.g.
``cycle 3 2``, ``chain 3``, ``single-vertex 2 2 cyclic``, ``product f2 f3``.

Exit codes: 0 all checks pass, 1 usage or parse error, 2 validation failure,
a graph the command cannot handle (MalformedGraphError, UnsupportedGraphError)
or a refused budget (BudgetError), 3 numeric invariant failure.
"""

import argparse
import functools
import os
import sys

from . import builders, dsl, reports, structure
from .errors import (CompositionError, ConstructionError, DomainError, KFockError,
                     SpecSyntaxError)
from .kgraph import validate

USAGE_EXIT = 1
VALIDATION_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def nonnegative_float(text):
    x = float(text)
    if not 0 <= x < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {x}")
    return x


def complex_coordinates(text):
    try:
        coords = [complex(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want complex numbers separated by commas or spaces, got {text!r}") from None
    if not all(abs(z) < float("inf") for z in coords):  # NaN too
        raise argparse.ArgumentTypeError(f"coordinates must be finite, got {text!r}")
    return coords


def _resolve_graph(tokens):
    """A lone existing file path is parsed; anything else is a builtin name."""
    if len(tokens) == 1 and os.path.exists(tokens[0]):
        try:
            with open(tokens[0], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as ex:
            raise SpecSyntaxError(f"cannot read spec file: {ex}") from None
        return dsl.parse_spec(text), tokens[0]
    return builders.builtin_graph(tokens), " ".join(tokens)


def _emit(report, json_path):
    reports.dump_report(report, json_path)
    if json_path:
        print(f"report written to {json_path}")


def _validated(args):
    """The graph, its description and its report; a failing graph's report exits 2."""
    g, desc = _resolve_graph(args.graph)
    rep = validate(g, max_grading=args.max_grading)
    if not rep.ok:
        _emit(reports.envelope("validate", desc, {"validation": rep.to_dict()}), args.json)
        raise SystemExit(VALIDATION_EXIT)
    return g, desc, rep


def _cmd_validate(args):
    _, desc, rep = _validated(args)
    _emit(reports.envelope("validate", desc, {"validation": rep.to_dict()}), args.json)
    return 0


def _cmd_analyze(args):
    g, desc, _ = _validated(args)
    _emit(reports.envelope("analyze", desc, {"structure": structure.structure_report(g)}),
          args.json)
    return 0


def _op_words(g, specs):
    """Each ``--op`` as (edge word, export file name), checked before anything
    is written: its letters are edges that compose, and its name is a file
    name inside ``--out``."""
    words = []
    for spec in specs:
        word = []
        for tok in spec.split():  # ids of product edges hold commas: split only outside an id
            letters = [tok] if g.has_edge(tok) else [x for x in tok.split(",") if x]
            if not all(map(g.has_edge, letters)):
                raise DomainError(f"--op token {tok!r} is neither an edge id "
                                  f"nor edge ids joined by commas")
            word += letters
        if not word:
            raise DomainError(f"--op {spec!r} names no edge")
        g.path_from_word(word)  # CompositionError unless the letters compose
        name = "_".join(word) + ".mtx"
        if os.path.basename(name) != name:  # spec files may put any character in an edge id
            raise DomainError(f"export name {name!r} is not a file name in --out")
        words.append((tuple(word), name))
    return words


def _cmd_fock(args):
    from . import fock
    g, desc, _ = _validated(args)
    ops = _op_words(g, args.op or [])
    space = fock.TruncatedFock(g, args.trunc)
    # the checks build the edge tables, so a refused table writes no manifest
    comm = fock.commutant_residual(space)
    isom = fock.partial_isometry_residual(space)
    conflicts = fock.same_degree_range_conflicts(space)
    os.makedirs(args.out, exist_ok=True)
    manifest = os.path.join(args.out, "basis.tsv")
    fock.write_basis_manifest(space, manifest)

    written = []
    for word, name in ops:  # one operator at a time
        op = fock.word_op(space, word)
        fname = os.path.join(args.out, name)
        fock.write_matrix_market(op, fname)
        written.append({"word": list(word), "file": fname,
                        "nnz": op.nnz, "symbolGrading": len(word)})

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


def _cmd_gelfand(args):
    from . import fock, gelfand
    g, desc, _ = _validated(args)
    polys = [str(b) + " = 0" for b in gelfand.variety_polys(g)]

    points = []
    if args.alpha is not None:
        points.append(gelfand.as_point(g, args.alpha))
    if args.samples:
        points.extend(gelfand.sample_variety_points(
            g, args.samples, seed=args.seed, max_norm=args.max_norm))
    if not points:
        points = gelfand.sample_variety_points(
            g, 3, seed=args.seed, max_norm=args.max_norm)

    inside = [pt for pt in points if gelfand.in_ball(g, pt, open_=True)]  # those get checks
    norms_sq = max(
        (max((r * r for r in gelfand.ball_norms(g, pt)), default=0.0) for pt in inside),
        default=0.0,
    )
    trunc = args.trunc
    if trunc is None:
        trunc = gelfand.character_truncation([norms_sq] * g.k, 3, args.tol)
    space = fock.TruncatedFock(g, trunc)
    # all points in one call, first: its words x dimension bound refuses before any omega
    mults = iter(gelfand.multiplicativity_check(space, inside, tol=args.tol))

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
            omega = gelfand.omega_vector(space, pt)  # one build for the point's other checks
            entry["normCheck"] = gelfand.omega_norm_check(space, pt, omega=omega)
            mult = next(mults)
            entry["multiplicativity"] = mult
            if on_var:
                entry["eigenResiduals"] = {
                    e.id: gelfand.eigen_residual(g, e.id, pt, trunc, fock=space, omega=omega)
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


@functools.cache
def _build_parser():
    """Built once per process; ``main`` looks each command up by name."""
    p = _Parser(prog="kfock", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def graph_arg(sp, max_grading):
        sp.add_argument("graph", nargs="+",
                        help="spec file path or builtin tokens")
        sp.add_argument("--max-grading", type=int, default=max_grading,
                        help="accepted and echoed as maxGrading in validate "
                             "reports; the check is complete for every "
                             "grading, so it changes nothing")
        sp.add_argument("--json", default=None, help="write the report here")

    sp = sub.add_parser("validate", help="complete k-graph check: square bijection "
                                           "plus critical-word confluence")
    graph_arg(sp, 8)

    sp = sub.add_parser("analyze", help="cycle/radical/reflexivity report")
    graph_arg(sp, 6)

    sp = sub.add_parser("fock", help="export basis and operator matrices")
    graph_arg(sp, 6)
    sp.add_argument("--trunc", type=int, default=6)
    sp.add_argument("--op", action="append",
                    help="edge id or word, e.g. --op e1 --op 'e2 f1'; letters "
                         "are separated by spaces, or by commas in a token "
                         "that is not an edge id")
    sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("gelfand", help="variety, eigenvector, character checks")
    graph_arg(sp, 6)
    sp.add_argument("--trunc", type=int, default=None)
    sp.add_argument("--tol", type=nonnegative_float, default=1e-9)
    sp.add_argument("--alpha", type=complex_coordinates, default=None,
                    help="comma/space separated complex coordinates")
    sp.add_argument("--samples", type=nonnegative_int, default=0)
    sp.add_argument("--seed", type=nonnegative_int, default=0)
    sp.add_argument("--max-norm", type=nonnegative_float, default=0.15)

    sp = sub.add_parser("example", help="emit a canned spec file")
    sp.add_argument("name", nargs="+", help="builtin tokens, e.g. chain 3")
    sp.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return globals()[f"_cmd_{args.cmd}"](args)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else USAGE_EXIT
    except (KFockError, OSError) as ex:
        reports.dump_report({"error": type(ex).__name__, "message": str(ex)})
        if isinstance(ex, (SpecSyntaxError, ConstructionError, DomainError,
                           CompositionError, OSError)):
            return USAGE_EXIT
        return VALIDATION_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
