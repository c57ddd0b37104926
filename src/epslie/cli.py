"""Batch front door: parse inputs, run one computation, print a stable report.

Every number printed comes from the exact engine; identical inputs produce
byte-identical output.  Exit codes: 0 ok, 2 parse error or bad input,
3 validation error, 4 precondition error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog, fileio
from .algebra import AlgebraError
from .casimir import (
    invariant_multilinear_forms,
    vanishing_witness,
    quadratic_invariant_forms,
    casimir_operator,
    verify_homotopy_identity,
    CasimirError,
)
from .cohomology import CochainComplex, CochainError
from .extensions import (
    ExtensionError,
    NotPerfectError,
    homology_h2,
    universal_covering,
)
from .gmodule import ModuleError, adjoint
from .glmn import (
    GlWeight,
    WeightError,
    all_casimirs_vanish,
    is_dominant,
    q_s,
    sl_variant,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4


class CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        self.message = message


def _resolve_algebra(spec):
    if spec in catalog.algebra_names():
        return catalog.get_algebra(spec), spec
    if os.path.exists(spec):
        return fileio.load_algebra(spec), None
    raise CliError(
        EXIT_PARSE, "unknown algebra %r (not a catalog name or file)" % spec
    )


def _resolve_module(spec, L, algebra_name):
    if algebra_name is not None:
        try:
            return catalog.get_module(L, algebra_name, spec)
        except KeyError:
            pass
    if os.path.exists(spec):
        return fileio.load_module(spec, L)
    raise CliError(
        EXIT_PARSE, "unknown module %r (not a catalog name or file)" % spec
    )


def _save(save, obj, path):
    """Write an export file; a path that cannot be written is exit 2."""
    try:
        save(obj, path)
    except OSError as e:
        raise CliError(EXIT_PARSE, "cannot write %s: %s" % (path, e.strerror or e))


def _check_count(flag, value, least):
    """A count below its least value is bad input, refused before any work."""
    if value < least:
        raise CliError(EXIT_PARSE, "%s must be >= %d" % (flag, least))


def _fmt_deg(deg):
    return "(" + ",".join(str(x) for x in deg) + ")"


def _fmt_vector(labels, vec):
    parts = []
    for k in sorted(vec):
        c = vec[k]
        parts.append("%s*%s" % (c, labels[k]))
    return " + ".join(parts) if parts else "0"


def _fmt_monomial(labels, mono):
    if not mono:
        return "()"
    return "^".join(labels[i] for i in mono)


def _first_problem(report):
    """The first problem of a ValidationReport as "kind at a/b: detail"."""
    kind, where, detail = report.problems[0]
    return "%s at %s: %s" % (kind, "/".join(where), detail)


def cmd_check(args, out):
    L, name = _resolve_algebra(args.algebra)
    rep = L.validate()
    if not rep.ok:
        raise CliError(EXIT_VALIDATION, "algebra invalid: " + _first_problem(rep))
    out("algebra ok: dim %d" % L.dim)
    if args.module:
        V = _resolve_module(args.module, L, name)
        vrep = V.validate()
        if not vrep.ok:
            raise CliError(EXIT_VALIDATION, "module invalid: " + _first_problem(vrep))
        out("module ok: dim %d" % V.dim)
    return EXIT_OK


def cmd_cohomology(args, out):
    _check_count("--nmax", args.nmax, 0)
    if args.csv and (args.oracle_check or args.representatives):
        flag = "--oracle-check" if args.oracle_check else "--representatives"
        raise CliError(EXIT_PARSE, "--csv does not combine with %s" % flag)
    L, name = _resolve_algebra(args.algebra)
    V = _resolve_module(args.module, L, name)
    if args.oracle_check and (any(not m.is_zero() for m in V.action) or V.dim != 1):
        raise CliError(
            EXIT_PRECONDITION, "--oracle-check applies to trivial coefficients"
        )
    cx = CochainComplex(L, V, args.nmax)
    res = cx.cohomology()
    if args.csv:
        out("n,sector,dim_Z,dim_B,dim_H")
        for n in range(args.nmax + 1):
            for deg, (z, b, h) in sorted(res.dims(n).items()):
                out("%d,%s,%d,%d,%d" % (n, _fmt_deg(deg).replace(",", ";"), z, b, h))
        return EXIT_OK
    out("cohomology of %s with coefficients in %s, n = 0..%d"
        % (args.algebra, args.module, args.nmax))
    for n in range(args.nmax + 1):
        out("H^%d dim %d" % (n, res.total(n)))
    lines = []
    for n in range(args.nmax + 1):
        for deg, t in res.sector_table(n):
            lines.append("n=%d sector %s dim %d" % (n, _fmt_deg(deg), t[2]))
    if lines:
        out("nonzero sectors:")
        for ln in lines:
            out("  " + ln)
    if args.oracle_check:
        ad = adjoint(L)
        for n in range(1, args.nmax + 1):
            forms = invariant_multilinear_forms(ad, n, "eps_skew")
            ok = len(forms) == res.total(n)
            out("oracle n=%d: invariant skew forms dim %d -> %s"
                % (n, len(forms), "agree" if ok else "DISAGREE"))
            if not ok:
                raise CliError(EXIT_VALIDATION, "oracle cross-check failed")
    if args.representatives:
        for n in range(args.nmax + 1):
            for deg, t in res.sector_table(n):
                for k, rep in enumerate(cx.representatives(n, deg)):
                    out("representative n=%d sector %s #%d:" % (n, _fmt_deg(deg), k))
                    for mono in sorted(rep.values):
                        out("  %s -> %s" % (
                            _fmt_monomial(L.labels, mono),
                            _fmt_vector(V.labels, rep.values[mono]),
                        ))
    return EXIT_OK


def cmd_invariant_forms(args, out):
    _check_count("--arity", args.arity, 1)
    L, name = _resolve_algebra(args.algebra)
    if args.module:
        M = _resolve_module(args.module, L, name)
    else:
        M = adjoint(L)
    symmetry = {"none": "none", "sym": "eps_symmetric", "skew": "eps_skew"}[
        args.symmetry
    ]
    forms = invariant_multilinear_forms(M, args.arity, symmetry)
    out("invariant %s %d-linear forms: dim %d" % (args.symmetry, args.arity, len(forms)))
    for k, f in enumerate(forms):
        out("form #%d degree %s, %d values" % (k, _fmt_deg(f.degree), len(f.values)))
    return EXIT_OK


def cmd_casimir_check(args, out):
    L, name = _resolve_algebra(args.algebra)
    V = _resolve_module(args.module, L, name)
    forms = quadratic_invariant_forms(L)
    out("quadratic invariant forms on the dual: %d" % len(forms))
    witness = vanishing_witness(L, V, forms)
    if witness is None:
        out("vanishing witness: none")
    else:
        out("vanishing witness: invertible Casimir of degree %s"
            % _fmt_deg(witness.degree))
        out("conclusion: H^n vanishes for all n >= 1")
    return EXIT_OK


def cmd_homotopy_check(args, out):
    _check_count("--n", args.n, 1)
    L, name = _resolve_algebra(args.algebra)
    V = _resolve_module(args.module, L, name)
    forms = quadratic_invariant_forms(L)
    if not forms:
        raise CliError(EXIT_PRECONDITION, "no quadratic invariant form available")
    cas = casimir_operator(L, forms[0], V)
    cx = CochainComplex(L, V, args.n)
    ok = verify_homotopy_identity(cas, cx, args.n)
    out("homotopy identity at n=%d: %s" % (args.n, "holds" if ok else "FAILS"))
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_homology2(args, out):
    L, _ = _resolve_algebra(args.algebra)
    res = homology_h2(L)
    out("H_2 total dim %d" % res.total())
    for deg, h in sorted(res.graded_dims().items()):
        out("sector %s dim %d" % (_fmt_deg(deg), h))
    return EXIT_OK


def cmd_covering(args, out):
    L, _ = _resolve_algebra(args.algebra)
    try:
        cov = universal_covering(L)
    except NotPerfectError as e:
        raise CliError(EXIT_PRECONDITION, str(e))
    if args.export:
        _save(fileio.save_algebra, cov.covering, args.export)
    out("universal covering: dim %d" % cov.covering.dim)
    out("center dim %d" % cov.center_total())
    for deg, d in sorted(cov.center_dims.items()):
        out("center sector %s dim %d" % (_fmt_deg(deg), d))
    out("perfect: yes")
    if args.export:
        out("exported covering to %s" % args.export)
    return EXIT_OK


def cmd_atypical(args, out):
    try:
        L = [fileio.parse_coeff(x.strip()) for x in args.weight.split(",")]
        w = GlWeight(args.m, args.n, tuple(L))
    except (WeightError, fileio.ParseError) as e:
        raise CliError(EXIT_PARSE, "bad weight: %s" % e)
    if args.sl:
        try:
            w = sl_variant(w)
        except WeightError as e:
            raise CliError(EXIT_PRECONDITION, str(e))
    out("weight L = (%s)" % ", ".join(str(x) for x in w.L))
    out("dominant-integral pattern: %s" % ("yes" if is_dominant(w) else "no"))
    out("coordinate sum: %s" % sum(w.L))
    vanish = all_casimirs_vanish(w)
    out("all constant-term-free Casimir operators vanish: %s"
        % ("yes" if vanish else "no"))
    bound = args.m + args.n + 2
    qs = [q_s(w, s) for s in range(1, bound + 1)]
    out("power sums Q_1..Q_%d: %s" % (bound, ", ".join(str(x) for x in qs)))
    agree = vanish == all(x == 0 for x in qs)
    out("criterion consistency: %s" % ("agree" if agree else "DISAGREE"))
    return EXIT_OK if agree else EXIT_VALIDATION


def cmd_catalog(args, out):
    if args.action == "list":
        for name in catalog.algebra_names():
            out("%s: modules %s" % (name, ", ".join(catalog.module_names(name))))
        return EXIT_OK
    if args.action == "export":
        for flag, value in (("--algebra", args.algebra), ("--out", args.out)):
            if value is None:
                raise CliError(EXIT_PARSE, "catalog export needs %s" % flag)
        L, name = _resolve_algebra(args.algebra)
        if args.module:
            V = _resolve_module(args.module, L, name)
            _save(fileio.save_module, V, args.out)
            out("wrote module %s" % args.out)
        else:
            _save(fileio.save_algebra, L, args.out)
            out("wrote algebra %s" % args.out)
        return EXIT_OK
    raise CliError(EXIT_PARSE, "unknown catalog action %r" % args.action)


def build_parser():
    p = argparse.ArgumentParser(
        prog="epslie",
        description="exact cohomology of Lie superalgebras and color Lie algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def alg(sp, module_required=None):
        sp.add_argument("--algebra", required=True,
                        help="catalog name or algebra file")
        if module_required is not None:
            sp.add_argument("--module", required=module_required,
                            help="catalog name or module file")

    sp = sub.add_parser("check", help="validate inputs")
    alg(sp, module_required=False)

    sp = sub.add_parser("cohomology", help="cohomology dimensions")
    alg(sp, module_required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--representatives", action="store_true")
    sp.add_argument("--oracle-check", action="store_true",
                    help="cross-check trivial coefficients against the invariant "
                         "eps-skew forms on the adjoint; this holds only below the "
                         "first n where the two differ (n = 5 on sl12, n = 3 on "
                         "gl11, n = 2 on psl22)")
    sp.add_argument("--csv", action="store_true")

    sp = sub.add_parser("invariant-forms", help="invariant multilinear forms")
    alg(sp, module_required=False)
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("--symmetry", choices=["none", "sym", "skew"], default="none")

    sp = sub.add_parser("casimir-check", help="vanishing criterion witness")
    alg(sp, module_required=True)

    sp = sub.add_parser("homotopy-check", help="contracting-homotopy identity")
    alg(sp, module_required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("homology2", help="second homology")
    alg(sp)

    sp = sub.add_parser("covering", help="universal central covering")
    alg(sp)
    sp.add_argument("--export", help="write the covering as an algebra file")

    sp = sub.add_parser("atypical", help="gl(m|n) Casimir-vanishing test")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--weight", required=True, help="comma-separated rationals")
    sp.add_argument("--sl", action="store_true",
                    help="project onto the special linear weight first")

    sp = sub.add_parser("catalog", help="list or export built-in entries")
    sp.add_argument("action", choices=["list", "export"])
    sp.add_argument("--algebra")
    sp.add_argument("--module")
    sp.add_argument("--out")

    return p


HANDLERS = {
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "invariant-forms": cmd_invariant_forms,
    "casimir-check": cmd_casimir_check,
    "homotopy-check": cmd_homotopy_check,
    "homology2": cmd_homology2,
    "covering": cmd_covering,
    "atypical": cmd_atypical,
    "catalog": cmd_catalog,
}


def main(argv=None, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    out = lambda line: print(line, file=stdout)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args, out)
    except CliError as e:
        out("error: %s" % e.message)
        return e.code
    except fileio.ParseError as e:
        out("parse error: %s" % e)
        return EXIT_PARSE
    except fileio.ValidationFailure as e:
        out("validation error: " + _first_problem(e.report))
        return EXIT_VALIDATION
    except (AlgebraError, ModuleError, CochainError, CasimirError,
            ExtensionError) as e:
        if isinstance(e, NotPerfectError):
            out("precondition error: %s" % e)
            return EXIT_PRECONDITION
        out("validation error: %s" % e)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
