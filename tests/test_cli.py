import io
import json
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epslie import catalog, cli, fileio, gmodule
from epslie.algebra import EpsLieAlgebra
from epslie.cli import main
from test_algebra import B, VP, WM, reference_validate


def run_cli(args):
    buf = io.StringIO()
    code = main(args, stdout=buf)
    return code, buf.getvalue()


def test_check_catalog_algebra():
    code, out = run_cli(["check", "--algebra", "sl12"])
    assert code == 0
    assert "algebra ok: dim 8" in out


def test_check_with_module():
    code, out = run_cli(["check", "--algebra", "sl12", "--module", "v_half"])
    assert code == 0
    assert "module ok: dim 3" in out


def test_unknown_algebra_is_parse_error():
    code, out = run_cli(["check", "--algebra", "nonsense"])
    assert code == 2


def test_cohomology_table_contains_dims():
    code, out = run_cli(
        ["cohomology", "--algebra", "sl12", "--module", "v_half", "--nmax", "2"]
    )
    assert code == 0
    assert "H^0 dim 0" in out
    assert "H^1 dim 1" in out
    assert "H^2 dim 0" in out


def test_cohomology_deterministic_output():
    args = ["cohomology", "--algebra", "sl12", "--module", "v8", "--nmax", "1",
            "--representatives"]
    outs = {run_cli(args)[1] for _ in range(3)}
    assert len(outs) == 1


def test_cohomology_csv():
    code, out = run_cli(
        ["cohomology", "--algebra", "sl2", "--module", "trivial", "--nmax", "3",
         "--csv"]
    )
    assert code == 0
    assert out.splitlines()[0] == "n,sector,dim_Z,dim_B,dim_H"


def test_cohomology_oracle_check():
    code, out = run_cli(
        ["cohomology", "--algebra", "osp12", "--module", "trivial",
         "--nmax", "3", "--oracle-check"]
    )
    assert code == 0
    assert "DISAGREE" not in out


def test_oracle_check_solves_each_torus_once(monkeypatch):
    """One solve for the trivial module of the complex and one for the
    adjoint, which the invariant forms of every arity share."""
    solved = []
    original = gmodule.inner_torus

    def counted(V):
        solved.append(V.dim)
        return original(V)

    monkeypatch.setattr(gmodule, "inner_torus", counted)
    code, out = run_cli(["cohomology", "--algebra", "sl12", "--module", "trivial",
                         "--nmax", "4", "--oracle-check"])
    assert code == 0 and out.count("-> agree") == 4
    assert solved == [1, 8]


def test_covering_output():
    code, out = run_cli(["covering", "--algebra", "psl22"])
    assert code == 0
    assert "center dim 3" in out
    assert "universal covering: dim 17" in out


@pytest.mark.parametrize("argv, least", [
    (["cohomology", "--algebra", "sl2", "--module", "trivial", "--nmax", "-1"], 0),
    (["invariant-forms", "--algebra", "sl2", "--arity", "0"], 1),
    (["invariant-forms", "--algebra", "sl2", "--arity", "-1"], 1),
    (["homotopy-check", "--algebra", "sl2", "--module", "adjoint", "--n", "0"], 1),
    (["homotopy-check", "--algebra", "sl2", "--module", "adjoint", "--n", "-1"], 1),
])
def test_bad_count_is_parse_error(argv, least):
    code, out = run_cli(argv)
    assert code == 2, out
    assert out.splitlines() == ["error: %s must be >= %d" % (argv[-2], least)]


def test_covering_requires_perfect():
    code, out = run_cli(["covering", "--algebra", "gl11"])
    assert code == 4


def test_homology2():
    code, out = run_cli(["homology2", "--algebra", "psl22"])
    assert code == 0
    assert "H_2 total dim 3" in out


def test_atypical_verdict():
    code, out = run_cli(
        ["atypical", "--m", "2", "--n", "1", "--weight", "3,1,-4"]
    )
    assert code == 0
    assert "vanish: yes" in out
    code2, out2 = run_cli(
        ["atypical", "--m", "1", "--n", "1", "--weight", "2,1"]
    )
    assert code2 == 0
    assert "vanish: no" in out2


def test_atypical_bad_weight():
    code, _ = run_cli(["atypical", "--m", "1", "--n", "1", "--weight", "1"])
    assert code == 2


@pytest.mark.parametrize("weight", ["0.5,0,1/2", "1e200000,0,0", "1/0,0,0", "+-1,0,0"])
def test_atypical_reads_weights_as_p_or_p_over_q(weight):
    """A weight entry is read with the file format's p/q rule: decimal and
    exponent forms end in one line with exit 2, at once."""
    start = time.perf_counter()
    code, out = run_cli(["atypical", "--m", "2", "--n", "1", "--weight", weight])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert len(out.splitlines()) == 1, out
    assert out.startswith("error: bad weight: bad coefficient %r" % weight.split(",")[0])


def test_atypical_report_of_an_integral_weight():
    code, out = run_cli(["atypical", "--m", "2", "--n", "1", "--weight", "3, 1,-4"])
    assert code == 0
    assert out.splitlines() == [
        "weight L = (3, 1, -4)",
        "dominant-integral pattern: yes",
        "coordinate sum: 0",
        "all constant-term-free Casimir operators vanish: yes",
        "power sums Q_1..Q_5: 0, 0, 0, 0, 0",
        "criterion consistency: agree",
    ]


def test_casimir_and_homotopy_commands():
    code, out = run_cli(
        ["casimir-check", "--algebra", "sl12", "--module", "v_typical"]
    )
    assert code == 0 and "witness: invertible" in out
    code2, out2 = run_cli(
        ["casimir-check", "--algebra", "sl12", "--module", "v_half"]
    )
    assert code2 == 0 and "witness: none" in out2
    code3, out3 = run_cli(
        ["homotopy-check", "--algebra", "sl12", "--module", "v_typical",
         "--n", "1"]
    )
    assert code3 == 0 and "holds" in out3


def test_invariant_forms_command():
    code, out = run_cli(
        ["invariant-forms", "--algebra", "sl2", "--arity", "3",
         "--symmetry", "skew"]
    )
    assert code == 0
    assert "dim 1" in out


def test_invariant_forms_psl33_skew_cubic():
    code, out = run_cli(
        ["invariant-forms", "--algebra", "psl33", "--arity", "3",
         "--symmetry", "skew"]
    )
    assert code == 0
    assert out.splitlines() == [
        "invariant skew 3-linear forms: dim 1",
        "form #0 degree (0,0,0,0,0,0), 444 values",
    ]


def test_catalog_list():
    code, out = run_cli(["catalog", "list"])
    assert code == 0
    assert "sl12" in out and "v_half" in out


def test_export_and_roundtrip(tmp_path):
    apath = str(tmp_path / "sl12.json")
    code, _ = run_cli(["catalog", "export", "--algebra", "sl12", "--out", apath])
    assert code == 0
    L1 = catalog.sl12()
    L2 = fileio.load_algebra(apath)
    assert L2.table == L1.table
    assert L2.degrees == L1.degrees
    assert L2.labels == L1.labels
    # module round trip
    mpath = str(tmp_path / "v8.json")
    code, _ = run_cli(
        ["catalog", "export", "--algebra", "sl12", "--module", "v8",
         "--out", mpath]
    )
    assert code == 0
    V = fileio.load_module(mpath, L2)
    ref = catalog.module_v8(L1)
    assert V.degrees == ref.degrees
    assert all(a == b for a, b in zip(V.action, ref.action))
    # the exported files drive the other commands
    code, out = run_cli(
        ["cohomology", "--algebra", apath, "--module", mpath, "--nmax", "1"]
    )
    assert code == 0 and "H^1 dim 1" in out


def test_exported_files_are_byte_stable(tmp_path):
    p1 = str(tmp_path / "a1.json")
    p2 = str(tmp_path / "a2.json")
    run_cli(["catalog", "export", "--algebra", "psl22", "--out", p1])
    run_cli(["catalog", "export", "--algebra", "psl22", "--out", p2])
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_broken_jacobi_file_names_triple(tmp_path):
    L = catalog.sl2()
    data = fileio.algebra_to_dict(L)
    for rec in data["brackets"]:
        if rec["i"] == 0 and rec["j"] == 1:
            rec["terms"] = [{"k": 0, "coeff": "-3"}]  # <h,e> = 3e breaks Jacobi
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out = run_cli(["check", "--algebra", path])
    assert code == 3
    assert "jacobi" in out
    assert "e" in out and "h" in out and "f" in out


def _broken_sl2():
    L = catalog.sl2()
    table = {key: dict(vec) for key, vec in L.table.items()}
    table[(0, 1)] = {0: Fraction(-3)}  # <h,e> = 3e, as in the file above
    return EpsLieAlgebra(L.factor, L.labels, L.degrees, table)


def _broken_odd_first_sl12():
    """sl(1|2) with its odd basis first, so the earliest triples have
    eps(i, j) = -1, and <V+,W-> doubled on B: the first failing triple is
    V+/V+/W-, but V+/V-/W+ when the sign eps(i, j) is dropped."""
    L = catalog.sl12()
    order = [4, 5, 6, 7, 0, 1, 2, 3]
    at = {old: new for new, old in enumerate(order)}
    table = {(at[i], at[j]): {at[k]: c for k, c in vec.items()}
             for (i, j), vec in L.table.items()}
    table[(at[VP], at[WM])][at[B]] *= 2
    return EpsLieAlgebra(L.factor, [L.labels[a] for a in order],
                         [L.degrees[a] for a in order], table)


@pytest.mark.parametrize("build", [_broken_sl2, _broken_odd_first_sl12])
def test_check_reports_the_first_problem_of_the_reference_loop(tmp_path, build):
    A = build()
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        json.dump(fileio.algebra_to_dict(A), fh)
    kind, where, detail = reference_validate(A).problems[0]
    code, out = run_cli(["check", "--algebra", path])
    assert code == 3
    assert out == "validation error: %s at %s: %s\n" % (kind, "/".join(where), detail)


def test_malformed_json_is_parse_error(tmp_path):
    path = str(tmp_path / "junk.json")
    for junk in (b"{not json", b"\xff\xfe"):
        with open(path, "wb") as fh:
            fh.write(junk)
        code, out = run_cli(["check", "--algebra", path])
        assert code == 2, (junk, out)
        assert len(out.splitlines()) == 1, (junk, out)

    # bad values in otherwise well-formed files end in one line, never a
    # traceback, and are never coerced
    L = catalog.sl12()
    alg_path = str(tmp_path / "alg.json")
    mod_path = str(tmp_path / "mod.json")

    k = fileio.algebra_to_dict(L)["brackets"][0]["terms"][0]["k"]
    bracket_k = ("brackets", 0, "terms", 0, "k")
    degree = ("basis", 0, "degree")
    # (file, path to the field, bad value, exit code)
    cases = [
        ("algebra", bracket_k, 99, 3),
        ("algebra", bracket_k, k + 0.5, 2),
        ("algebra", ("brackets", 0, "i"), 0.5, 2),
        ("algebra", ("grading", "free_rank"), 1.5, 2),
        ("algebra", ("grading", "form"), [[1.5]], 2),
        ("algebra", ("grading", "form"), [["1"]], 2),
        ("algebra", degree, ["a"], 2),
        ("algebra", degree, [0, 0], 2),
        ("algebra", degree, [0.5], 2),
        ("module", degree, ["a"], 2),
        ("module", degree, [1, 0], 2),
        ("module", degree, [0.5], 2),
        ("module", ("action", 0, "entries", 0, "row"), 0.5, 2),
        ("module", ("action", 0, "op"), 0.5, 2),
        ("module", ("action", 0, "entries", 0, "coeff"), 1.0, 2),
        ("algebra", ("brackets", 0, "terms", 0, "coeff"), True, 2),
        ("algebra", ("basis", 0, "label"), 5, 2),
        ("module", ("basis", 0, "label"), None, 2),
        ("algebra", ("grading",), {"free_rank": 0, "torsion": [3], "form": [[1]]}, 2),
    ]
    for which, keys, value, want in cases:
        alg = fileio.algebra_to_dict(L)
        mod = fileio.module_to_dict(catalog.get_module(L, "sl12", "v_half"))
        field = alg if which == "algebra" else mod
        for key in keys[:-1]:
            field = field[key]
        field[keys[-1]] = value
        for path, data in ((alg_path, alg), (mod_path, mod)):
            with open(path, "w") as fh:
                json.dump(data, fh)
        code, out = run_cli(["cohomology", "--algebra", alg_path,
                             "--module", mod_path, "--nmax", "0"])
        assert code == want, (which, keys, value, out)
        assert len(out.splitlines()) == 1, (which, keys, value, out)

    # a record given twice is rejected, never silently overwritten; the
    # copies are identical, so taking either would still validate
    dups = [
        ("algebra", ("brackets",)),
        ("algebra", ("brackets", 0, "terms")),
        ("module", ("action",)),
        ("module", ("action", 0, "entries")),
    ]
    for which, keys in dups:
        alg = fileio.algebra_to_dict(L)
        mod = fileio.module_to_dict(catalog.get_module(L, "sl12", "v_half"))
        records = alg if which == "algebra" else mod
        for key in keys:
            records = records[key]
        records.append(dict(records[0]))
        for path, data in ((alg_path, alg), (mod_path, mod)):
            with open(path, "w") as fh:
                json.dump(data, fh)
        code, out = run_cli(["cohomology", "--algebra", alg_path,
                             "--module", mod_path, "--nmax", "0"])
        assert code == 2, (which, keys, out)
        assert len(out.splitlines()) == 1, (which, keys, out)
        assert "given twice" in out, (which, keys, out)
    # both (i, j) and (j, i) may be given, as long as they agree
    alg = fileio.algebra_to_dict(L)
    rec = alg["brackets"][0]
    assert rec["i"] != rec["j"]
    e = L.signs[rec["i"]][rec["j"]]
    swapped = [{"k": t["k"], "coeff": str(-e * Fraction(t["coeff"]))} for t in rec["terms"]]
    alg["brackets"].append({"i": rec["j"], "j": rec["i"], "terms": swapped})
    with open(alg_path, "w") as fh:
        json.dump(alg, fh)
    code, out = run_cli(["check", "--algebra", alg_path])
    assert code == 0, out

    # a form that is not a bicharacter on Z_3, on an algebra valid otherwise
    z3 = {"grading": {"free_rank": 0, "torsion": [3], "form": [[1]]},
          "basis": [{"label": "x", "degree": [1]}], "brackets": []}
    with open(alg_path, "w") as fh:
        json.dump(z3, fh)
    code, out = run_cli(["check", "--algebra", alg_path])
    assert code == 2, out
    assert len(out.splitlines()) == 1, out


@pytest.mark.parametrize("coeff", ["1e999999999", "0.5", " 1/2", "1/0", "\u0661"])
def test_coefficients_other_than_p_over_q_are_refused_at_once(tmp_path, coeff):
    """Only what coeff_str writes is read: an exponent form is never
    expanded, and a decimal or padded one is never coerced."""
    data = fileio.algebra_to_dict(catalog.sl2())
    data["brackets"][0]["terms"][0]["coeff"] = coeff
    path = str(tmp_path / "sl2.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    start = time.perf_counter()
    code, out = run_cli(["check", "--algebra", path])
    assert time.perf_counter() - start < 2
    assert code == 2, out
    assert out.startswith("parse error: bad coefficient %r" % coeff)
    assert len(out.splitlines()) == 1, out


def test_coefficients_are_read_in_the_stored_format():
    assert [fileio.parse_coeff(s) for s in ("3", "-4/2", "+1/2", "007")] == [
        3, -2, Fraction(1, 2), 7]
    assert [type(fileio.parse_coeff(s)) for s in ("3", "-4/2", "6/4")] == [int, int, Fraction]


@pytest.mark.parametrize("name", ["w0", "w07", "w5", "v9"])
def test_unlisted_catalog_module_is_parse_error(name):
    code, out = run_cli(["check", "--algebra", "sl12", "--module", name])
    assert code == 2
    assert out.splitlines()[-1].startswith("error: unknown module")


def test_no_floating_point_in_reports():
    import re

    for args in (
        ["cohomology", "--algebra", "sl12", "--module", "v8", "--nmax", "2",
         "--representatives"],
        ["covering", "--algebra", "psl22"],
        ["atypical", "--m", "1", "--n", "2", "--weight", "1,-1,0"],
        ["invariant-forms", "--algebra", "sl2", "--arity", "2",
         "--symmetry", "sym"],
    ):
        code, out = run_cli(args)
        assert code == 0
        assert not re.search(r"\d+\.\d", out), out


def test_covering_export_round_trips(tmp_path):
    path = str(tmp_path / "cov.json")
    code, out = run_cli(["covering", "--algebra", "psl22", "--export", path])
    assert code == 0
    C = fileio.load_algebra(path)
    assert C.dim == 17
    assert C.is_perfect()


@pytest.mark.parametrize("argv", [
    ["catalog", "export", "--algebra", "sl12"],
    ["catalog", "export", "--out", "{file}"],
    ["catalog", "export", "--algebra", "sl12", "--out", "{dir}"],
    ["catalog", "export", "--algebra", "sl12", "--out", "{missing}"],
    ["catalog", "export", "--algebra", "sl12", "--module", "v8", "--out", "{dir}"],
    ["covering", "--algebra", "sl2", "--export", "{dir}"],
    ["covering", "--algebra", "sl2", "--export", "{missing}"],
])
def test_unwritable_or_missing_output_path_is_one_line(tmp_path, argv):
    paths = {"file": str(tmp_path / "out.json"), "dir": str(tmp_path),
             "missing": str(tmp_path / "no" / "out.json")}
    code, out = run_cli([a.format(**paths) for a in argv])
    assert code == 2, out
    assert len(out.splitlines()) == 1, out
    assert not os.path.exists(paths["file"])


_FUZZ_SOURCES = [("sl12", "v_half"), ("sl12_z2", "trivial"), ("sl2", "adjoint")]


def _json_paths(node, path=()):
    """(path, value) for every value below the root of a JSON tree."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield path + (key,), child
        yield from _json_paths(child, path + (key,))


def _other_type(value):
    """Values of another JSON type: int -> float, str -> int, list -> str,
    anything -> null or bool."""
    other = st.none() | st.booleans()
    if type(value) is int:
        other |= st.floats(allow_nan=False, allow_infinity=False)
    elif isinstance(value, str):
        other |= st.integers()
    elif isinstance(value, list):
        other |= st.text(max_size=3)
    return other


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_loader_fuzz_wrong_json_type_is_parse_error(tmp_path_factory, data):
    aname, mname = data.draw(st.sampled_from(_FUZZ_SOURCES))
    L = catalog.get_algebra(aname)
    files = {
        "algebra": fileio.algebra_to_dict(L),
        "module": fileio.module_to_dict(catalog.get_module(L, aname, mname)),
    }
    which = data.draw(st.sampled_from(sorted(files)))
    path, old = data.draw(st.sampled_from(list(_json_paths(files[which]))))
    new = data.draw(_other_type(old))
    parent = files[which]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    tmp = tmp_path_factory.mktemp("fuzz")
    args = ["cohomology", "--nmax", "0"]
    for kind, content in files.items():
        name = str(tmp / ("%s.json" % kind))
        with open(name, "w") as fh:
            json.dump(content, fh)
        args += ["--" + kind, name]
    code, out = run_cli(args)
    assert code == 2, (which, path, new, out)
    assert len(out.splitlines()) == 1, (which, path, new, out)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


# Pinned reports of a computation that ranked every sector.  sl2, sl12 and
# psl22 have an inner torus, so they rank only the inner-weight-zero
# sectors; osp12 has none, so it still ranks every sector.
@pytest.mark.parametrize("algebra, module", [
    ("sl2", "trivial"), ("sl12", "v_half"), ("psl22", "adjoint"), ("osp12", "adjoint"),
])
@pytest.mark.parametrize("flag", [None, "--representatives", "--csv"])
def test_cohomology_reports_match_the_pinned_ones(algebra, module, flag):
    args = ["cohomology", "--algebra", algebra, "--module", module, "--nmax", "3"]
    suffix = ""
    if flag:
        args.append(flag)
        suffix = "-" + flag.lstrip("-")
    name = "cohomology-%s-%s-n3%s.out" % (algebra, module, suffix)
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        want = fh.read()
    assert run_cli(args) == (0, want)


# Covering exports of the perfect catalog algebras, pinned before H_2 took
# its boundaries from one elimination per sector.
@pytest.mark.parametrize("algebra", [
    "sl2", "sl3", "osp12", "sl12", "sl12_z2", "sl21", "sl22", "sl33", "psl22", "psl33",
])
def test_covering_exports_match_the_pinned_ones(tmp_path, algebra):
    path = tmp_path / "cov.json"
    code, _ = run_cli(["covering", "--algebra", algebra, "--export", str(path)])
    assert code == 0
    with open(os.path.join(GOLDEN, "covering-%s.json" % algebra), "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_covering_exports_are_pinned_for_every_perfect_algebra():
    perfect = {n for n in catalog.algebra_names() if catalog.get_algebra(n).is_perfect()}
    pinned = {f[len("covering-"):-len(".json")] for f in os.listdir(GOLDEN)
              if f.startswith("covering-")}
    assert pinned == perfect


def _no_complex(*args, **kwargs):
    raise AssertionError("a refused command built a cochain complex")


# The first offending flag in the order --oracle-check, --representatives
@pytest.mark.parametrize("flags, named", [
    (["--oracle-check"], "--oracle-check"),
    (["--representatives"], "--representatives"),
    (["--representatives", "--oracle-check"], "--oracle-check"),
])
def test_csv_refuses_report_flags_before_any_work(monkeypatch, flags, named):
    monkeypatch.setattr(cli, "CochainComplex", _no_complex)
    args = ["cohomology", "--algebra", "sl12", "--module", "trivial", "--nmax", "1",
            "--csv"] + flags
    assert run_cli(args) == (2, "error: --csv does not combine with %s\n" % named)


def test_oracle_check_refuses_module_coefficients_before_any_work(monkeypatch):
    monkeypatch.setattr(cli, "CochainComplex", _no_complex)
    args = ["cohomology", "--algebra", "sl12", "--module", "v_half", "--nmax", "1",
            "--oracle-check"]
    assert run_cli(args) == (4, "error: --oracle-check applies to trivial coefficients\n")
