"""Algebra and module files: structured JSON, exactly representable rationals.

Algebra files:
  {"grading": {"free_rank": r, "torsion": [..], "form": [[..]]},
   "basis": [{"label": str, "degree": [..]}, ..],
   "brackets": [{"i": a, "j": b, "terms": [{"k": c, "coeff": "p/q"}, ..]}, ..]}

Module files add sparse-triplet action matrices, one per algebra basis
element:
  {"basis": [..as above..],
   "action": [{"op": i, "entries": [{"row": r, "col": c, "coeff": "p/q"}]}]}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import EpsLieAlgebra
from .exactlin import RationalSparseMatrix, rational
from .gmodule import GradedModule
from .grading import CommutationFactor, GradingGroup


class ParseError(ValueError):
    pass


class ValidationFailure(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__("validation failed: %r" % (report,))


# the only coefficient form read: what coeff_str writes
_COEFF = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def coeff_str(x: int | Fraction):
    """A stored coefficient as "p/q", or "p" when it is an int."""
    return str(x)


def parse_str(raw, what):
    """A JSON string; a number, boolean or null is rejected, never coerced."""
    if not isinstance(raw, str):
        raise ParseError("%s %r is not a string" % (what, raw))
    return raw


def parse_coeff(raw):
    """A coefficient "p/q" or "p" as a stored coefficient; exponent, decimal
    and padded forms are rejected, never evaluated."""
    s = parse_str(raw, "coefficient")
    if not _COEFF.fullmatch(s):
        raise ParseError("bad coefficient %r: expected p or p/q" % s)
    try:
        return rational(Fraction(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError("bad coefficient %r: %s" % (s, e))


def parse_int(raw, what):
    """A JSON integer; a float, string or boolean is rejected, never coerced."""
    if type(raw) is not int:
        raise ParseError("%s %r is not an integer" % (what, raw))
    return raw


def parse_list(raw, what):
    """A JSON list; a string, object or scalar is rejected, never iterated."""
    if not isinstance(raw, list):
        raise ParseError("%s %r is not a list" % (what, raw))
    return raw


def parse_ints(raw, what):
    """A JSON list of integers, as a tuple."""
    return tuple(parse_int(c, what) for c in parse_list(raw, what))


def put_new(table, key, value, what):
    """table[key] = value; a key given twice is rejected, never overwritten."""
    if key in table:
        raise ParseError("%s %r is given twice" % (what, key))
    table[key] = value


def parse_degree(group, raw):
    """A degree as given in a file: exactly ncoords JSON integers."""
    deg = parse_ints(raw, "degree")
    if len(deg) != group.ncoords:
        raise ParseError(
            "degree %r is not a list of %d integers" % (raw, group.ncoords)
        )
    return deg


def algebra_to_dict(L: EpsLieAlgebra):
    brackets = []
    for (i, j) in sorted(L.table):
        terms = [
            {"k": k, "coeff": coeff_str(c)}
            for k, c in sorted(L.table[(i, j)].items())
        ]
        brackets.append({"i": i, "j": j, "terms": terms})
    return {
        "grading": {
            "free_rank": L.group.free_rank,
            "torsion": list(L.group.torsion_orders),
            "form": [list(row) for row in L.factor.form],
        },
        "basis": [
            {"label": lab, "degree": list(deg)}
            for lab, deg in zip(L.labels, L.degrees)
        ],
        "brackets": brackets,
    }


def algebra_from_dict(data):
    try:
        gr = data["grading"]
        group = GradingGroup(
            parse_int(gr["free_rank"], "free_rank"),
            parse_ints(gr.get("torsion", []), "torsion order"),
        )
        form = tuple(
            parse_ints(r, "form entry") for r in parse_list(gr["form"], "form")
        )
        factor = CommutationFactor(group, form)
        basis = parse_list(data["basis"], "basis")
        labels = [parse_str(b["label"], "label") for b in basis]
        degrees = [parse_degree(group, b["degree"]) for b in basis]
        brackets = {}
        for rec in parse_list(data.get("brackets", []), "brackets"):
            key = (parse_int(rec["i"], "bracket i"), parse_int(rec["j"], "bracket j"))
            terms = {}
            for t in parse_list(rec["terms"], "bracket terms"):
                k = parse_int(t["k"], "bracket term k")
                put_new(terms, k, parse_coeff(t["coeff"]), "bracket term k")
            put_new(brackets, key, terms, "bracket")
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError("malformed algebra data: %s" % e)
    L = EpsLieAlgebra(factor, labels, degrees, brackets)
    report = L.validate()
    if not report.ok:
        raise ValidationFailure(report)
    return L


def module_to_dict(V: GradedModule):
    action = []
    for i, m in enumerate(V.action):
        entries = [
            {"row": r, "col": c, "coeff": coeff_str(v)}
            for (r, c), v in sorted(m.entries.items())
        ]
        action.append({"op": i, "entries": entries})
    return {
        "basis": [
            {"label": lab, "degree": list(deg)}
            for lab, deg in zip(V.labels, V.degrees)
        ],
        "action": action,
    }


def module_from_dict(data, L: EpsLieAlgebra):
    try:
        basis = parse_list(data["basis"], "basis")
        labels = [parse_str(b["label"], "label") for b in basis]
        degrees = [parse_degree(L.group, b["degree"]) for b in basis]
        dim = len(labels)
        ents = {}
        for rec in parse_list(data.get("action", []), "action"):
            i = parse_int(rec["op"], "action op")
            if not 0 <= i < L.dim:
                raise ParseError("action op index %d out of range" % i)
            ent = {}
            for t in parse_list(rec["entries"], "action entries"):
                r = parse_int(t["row"], "action row")
                c = parse_int(t["col"], "action col")
                put_new(ent, (r, c), parse_coeff(t["coeff"]), "action entry")
            put_new(ents, i, ent, "action op")
        mats = [RationalSparseMatrix(dim, dim, ents.get(i)) for i in range(L.dim)]
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError("malformed module data: %s" % e)
    V = GradedModule(L, labels, degrees, mats)
    report = V.validate()
    if not report.ok:
        raise ValidationFailure(report)
    return V


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e))
    except UnicodeDecodeError as e:
        raise ParseError("%s is not UTF-8: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ParseError("bad JSON in %s: line %d: %s" % (path, e.lineno, e.msg))


def save_algebra(L, path):
    _write_json(path, algebra_to_dict(L))


def load_algebra(path):
    return algebra_from_dict(_read_json(path))


def save_module(V, path):
    _write_json(path, module_to_dict(V))


def load_module(path, L):
    return module_from_dict(_read_json(path), L)
