"""Layer spans and exact counters, installed from outside the engine.

The tracer wraps public functions and methods of ``epslie`` at each layer
boundary.  Nothing under ``src/`` knows it is being traced: wrappers are put
wherever callers look the names up (on the class for methods, and on every
loaded ``epslie`` module that holds a reference to a module-level function).

Spans nest.  Each open span collects the time of the spans it causes, so a
layer's self time is its span's duration minus that of its child spans.
The bookkeeping a wrapper does after the wrapped call returns (counting
matrix entries, say) is charged to no layer and reported on its own, so
that the self times plus that bookkeeping equal the root spans exactly.

The hot leaves (``CommutationFactor.eps``, ``GradingGroup.reduce`` and
``exterior.canonicalize``) are counted but not timed: a timing wrapper
around calls that each take a microsecond would mostly measure itself and
inflate its parents' self time.
"""

import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = {}  # observer counts, e.g. "elim.rref.pivots"
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> [calls, seconds]
        self.bookkeeping_s = 0.0
        self.spans = set()  # layers that are timed
        self.counted = set()  # layers that are only counted
        # Each open span is [layer, seconds spent in its child spans].
        self.stack = [["<root>", 0.0]]

    # -------------------------------------------------------------- wrappers

    def span(self, layer, fn, observe=None):
        """Time fn as a span of layer; observe(result, *args) adds counts."""
        self.spans.add(layer)
        stack = self.stack
        clock = self.clock
        tr = self

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.errors[layer] += 1
                t1 = clock()
                tr._close(frame, t0, t1, t1)
                raise
            t1 = clock()
            if observe is not None:
                observe(result, *args, **kwargs)
            tr._close(frame, t0, t1, clock())
            return result

        return traced

    def _close(self, frame, t0, t1, t2):
        self.stack.pop()
        parent = self.stack[-1]
        layer = frame[0]
        self.self_s[layer] += (t1 - t0) - frame[1]
        self.calls[layer] += 1
        edge = self.edges[(parent[0], layer)]
        edge[0] += 1
        edge[1] += t1 - t0
        parent[1] += t2 - t0
        self.bookkeeping_s += t2 - t1

    def count(self, layer, fn):
        """Count calls of fn without timing them."""
        self.counted.add(layer)
        calls = self.calls
        errors = self.errors

        def counted(*args, **kwargs):
            calls[layer] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise

        return counted

    # ------------------------------------------------------------- patching

    @staticmethod
    def patch(owner, name, wrapper):
        """Replace owner.name by wrapper(original) and, for a module-level
        function, every other reference to it held by an epslie module."""
        original = getattr(owner, name)
        wrapped = wrapper(original)
        setattr(owner, name, wrapped)
        if not isinstance(owner, type):
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("epslie"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# the epslie layer map


def install(tracer):
    """Wrap every layer boundary of epslie named in the benchmark."""
    catalog = importlib.import_module("epslie.catalog")
    grading = importlib.import_module("epslie.grading")
    exterior = importlib.import_module("epslie.exterior")
    exactlin = importlib.import_module("epslie.exactlin")
    # ``from epslie import cohomology`` is the re-exported function.
    cohomology = importlib.import_module("epslie.cohomology")
    casimir = importlib.import_module("epslie.casimir")
    extensions = importlib.import_module("epslie.extensions")
    algebra = importlib.import_module("epslie.algebra")
    cli = importlib.import_module("epslie.cli")

    tr = tracer
    counts = tr.counts
    counts.update(dict.fromkeys(OBSERVED, 0))

    def span(layer, observe=None):
        return lambda fn: tr.span(layer, fn, observe)

    def count(layer):
        return lambda fn: tr.count(layer, fn)

    # Matrices already seen, kept alive so that ids are never reused.
    seen = {}
    # (complex id, level) -> nnz of the full coboundary at that level
    level_nnz = {}

    def first_sight(obj):
        if id(obj) in seen:
            return False
        seen[id(obj)] = obj
        return True

    def observe_delta(mat, cx, n):
        if n >= 0 and first_sight(mat):
            seen[id(cx)] = cx
            level_nnz[(id(cx), n)] = len(mat.entries)
            counts["cohomology.delta.builds"] += 1
            counts["cohomology.delta.nnz"] += len(mat.entries)
            counts["cohomology.delta.rows"] += mat.rows
            counts["cohomology.delta.cols"] += mat.cols

    def observe_delta_sector(mat, cx, n, deg):
        if mat.rows and mat.cols:
            counts["cohomology.delta_sector.useful"] += 1
        if n >= 0 and first_sight(mat):
            counts["cohomology.delta_sector.nnz_scanned"] += level_nnz.get((id(cx), n), 0)

    def observe_rref(result, rows, *args, **kwargs):
        piv_cols, piv_rows = result
        counts["elim.rref.rows_in"] += len(rows)
        counts["elim.rref.nnz_in"] += sum(len(r) for r in rows)
        counts["elim.rref.pivots"] += len(piv_cols)
        counts["elim.rref.nnz_out"] += sum(len(r) for r in piv_rows)
        bits = max((abs(v).bit_length() for r in piv_rows for v in r.values()), default=0)
        counts["elim.rref.max_bits"] = max(counts["elim.rref.max_bits"], bits)

    def observe_span_add(grew, *args, **kwargs):
        if grew:
            counts["exactlin.span.grew"] += 1

    def observe_reps(reps, *args, **kwargs):
        counts["cohomology.representatives.reps"] += len(reps)

    p = tr.patch
    p(catalog, "get_algebra", span("catalog"))
    p(catalog, "get_module", span("catalog"))
    p(grading.CommutationFactor, "eps", count("grading.eps"))
    p(grading.GradingGroup, "reduce", count("grading.reduce"))
    p(exterior, "canonicalize", count("exterior.canonicalize"))
    p(exterior, "basis", span("exterior.basis"))
    p(cohomology.CochainComplex, "delta", span("cohomology.delta", observe_delta))
    p(cohomology.CochainComplex, "delta_sector",
      span("cohomology.delta_sector", observe_delta_sector))
    p(exactlin._elim, "rref", span("elim.rref", observe_rref))
    p(exactlin.RationalSparseMatrix, "_int_rows", span("exactlin.int_rows"))
    p(exactlin.RationalSparseMatrix, "kernel_basis", span("exactlin.kernel_basis"))
    p(exactlin.RationalSparseMatrix, "image_membership",
      span("exactlin.image_membership"))
    p(exactlin.SpanTracker, "add", span("exactlin.span", observe_span_add))
    p(cohomology, "coboundary", span("cohomology.coboundary"))
    p(cohomology.CochainComplex, "coboundary_witness",
      span("cohomology.coboundary_witness"))
    p(cohomology.CochainComplex, "representatives",
      span("cohomology.representatives", observe_reps))
    p(casimir, "invariant_multilinear_forms", span("casimir.invariant_forms"))
    p(extensions, "universal_covering", span("extensions.universal_covering"))
    p(extensions, "homology_h2", span("extensions.homology_h2"))
    p(extensions, "boundary2", span("extensions.boundary2"))
    p(extensions, "boundary3", span("extensions.boundary3"))
    p(algebra.EpsLieAlgebra, "validate", span("algebra.validate"))
    p(algebra.EpsLieAlgebra, "subquotient", span("algebra.subquotient"))
    p(cli, "main", span("cli"))


# Counts kept by the observers above; max_bits is a maximum, not a sum.
OBSERVED = (
    "cohomology.delta.builds", "cohomology.delta.nnz", "cohomology.delta.rows",
    "cohomology.delta.cols", "cohomology.delta_sector.useful",
    "cohomology.delta_sector.nnz_scanned", "elim.rref.rows_in", "elim.rref.nnz_in",
    "elim.rref.pivots", "elim.rref.nnz_out", "elim.rref.max_bits",
    "exactlin.span.grew", "cohomology.representatives.reps",
)

# Layer groups for the ``<group>.errors`` metrics, by span or counter prefix.
ERROR_GROUPS = (
    "catalog", "grading", "exterior", "cohomology.delta_sector",
    "cohomology.delta", "elim", "exactlin", "cohomology.verify", "casimir",
    "extensions", "algebra", "cli",
)
_VERIFY = ("cohomology.coboundary", "cohomology.coboundary_witness",
           "cohomology.representatives")


def error_group(layer):
    if layer in _VERIFY:
        return "cohomology.verify"
    for group in ERROR_GROUPS:
        if layer == group or layer.startswith(group + "."):
            return group
    raise KeyError(layer)


def summary(tracer):
    """Flat per-layer metrics of one traced process.

    Time metrics end in ``_s``; every other value is an exact count or a
    ratio of exact counts."""
    out = {}
    for layer in sorted(tracer.spans | tracer.counted):
        out[layer + ".calls"] = tracer.calls.get(layer, 0)
        if layer in tracer.spans:
            out[layer + ".self_s"] = tracer.self_s.get(layer, 0.0)
    out.update(tracer.counts)
    errors = dict.fromkeys(ERROR_GROUPS, 0)
    for layer, n in tracer.errors.items():
        errors[error_group(layer)] += n
    for group, n in errors.items():
        out[group + ".errors"] = n
    out["trace.bookkeeping_s"] = tracer.bookkeeping_s
    # Set-up runs catalog construction as a root span, the command runs cli.
    out["catalog.build_s"] = tracer.edges[("<root>", "catalog")][1]
    out["trace.wall_s"] = tracer.edges[("<root>", "cli")][1]
    out["edges"] = {
        "%s>%s" % key: {"calls": v[0], "s": v[1]} for key, v in sorted(tracer.edges.items())
    }
    return out


def ratios(m):
    """The three work-against-attempts ratios, from summed counts."""
    def frac(num, den):
        return m.get(num, 0) / m[den] if m.get(den) else 0.0

    return {
        "cohomology.delta_sector.useful_frac":
            frac("cohomology.delta_sector.useful", "cohomology.delta_sector.calls"),
        "elim.rref.rank_frac": frac("elim.rref.pivots", "elim.rref.rows_in"),
        "exactlin.span.grew_frac": frac("exactlin.span.grew", "exactlin.span.calls"),
    }
