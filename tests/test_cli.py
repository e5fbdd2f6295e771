"""CLI behavior: golden outputs, exit codes, cross-method checking."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leibniz_quiver import algebra, cli, cohomology, quiver
from leibniz_quiver.algebra import LeftModule, algebra_to_spec
from leibniz_quiver.bimodule import antisymmetric, bimodule_to_spec
from leibniz_quiver.errors import CollapseNotCertifiedError
from leibniz_quiver.repsl2 import hemi_sl2, simple_module


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRIVIAL_ALGEBRA = {"dim": 1, "bracket": [[[]]]}
BROKEN_ALGEBRA = {"dim": 1, "bracket": [[[[0, 1, 1]]]]}
ANTI_BIMODULE = {"dim": 1, "left": [[[2]]], "right": [[[0]]]}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------ ext trivial

def test_ext_trivial_both_methods_agree(capsys):
    code, out, err = run(capsys, "ext", "trivial", "--src", "K", "--dst", "K",
                         "--nmax", "3", "--method", "both")
    assert code == 0
    assert out == "1 2 2 2\n1 2 2 2\n"
    assert err == ""


def test_ext_trivial_same_kind_same_eigenvalue(capsys):
    code, out, _ = run(capsys, "ext", "trivial", "--src", "M^s:1",
                       "--dst", "M^s:1", "--nmax", "4")
    assert code == 0
    assert out == "1 1 0 0 0\n"


def test_ext_trivial_distinct_eigenvalues_vanish(capsys):
    code, out, _ = run(capsys, "ext", "trivial", "--src", "M^a:1",
                       "--dst", "M^a:1/2", "--nmax", "2", "--method", "both")
    assert code == 0
    assert out == "0 0 0\n0 0 0\n"


def test_ext_trivial_json_document(capsys):
    # only the spectral route computes a collapse certificate
    for method, certified in (("closed", None), ("spectral", True), ("both", True)):
        code, out, _ = run(capsys, "ext", "trivial", "--src", "K", "--dst", "K",
                           "--nmax", "2", "--format", "json", "--method", method)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"ext": {"pairs": [
            {"src": "K", "dst": "K", "dims": [1, 2, 2], "certified": certified}
        ]}}


def test_ext_trivial_bad_descriptor(capsys):
    code, _, err = run(capsys, "ext", "trivial", "--src", "Q", "--dst", "K",
                       "--nmax", "1")
    assert code == 1
    assert "descriptor" in err


def test_one_dim_bimodule_without_an_eigenvalue_is_refused(capsys):
    for kind, article in (("a", "an antisymmetric"), ("s", "a symmetric")):
        assert run(capsys, "ext", "trivial", "--src", f"M^{kind}:0", "--dst", "K",
                   "--nmax", "1") == (
            1, "", f"error: {article} one-dimensional bimodule needs a nonzero eigenvalue\n")


def test_ext_trivial_method_divergence_is_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ext_trivial_closed", lambda mk, nk, nmax: [9] * (nmax + 1))
    for fmt, expected_out in (("text", "9 9\n1 2\n"), ("json", "")):
        code, out, err = run(capsys, "ext", "trivial", "--src", "K", "--dst", "K",
                             "--nmax", "1", "--method", "both", "--format", fmt)
        assert code == 2
        assert out == expected_out
        assert "closed" in err and "spectral" in err


def test_ext_trivial_uncertified_collapse_is_exit_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise CollapseNotCertifiedError((2, 0, 1))

    monkeypatch.setattr(cli, "ext_dims", boom)
    code, _, err = run(capsys, "ext", "trivial", "--src", "K", "--dst", "K",
                       "--nmax", "1", "--method", "spectral")
    assert code == 2
    assert "collapse not certified" in err
    assert "d_2" in err


# --------------------------------------------------------------------- ext hemi

def test_ext_hemi_both_methods_agree(capsys):
    code, out, err = run(capsys, "ext", "hemi", "--n", "2", "--src", "V2^s",
                         "--dst", "V0^a", "--method", "both")
    assert code == 0
    assert out == "2\n2\n"
    assert err == ""


def test_ext_hemi_json_document(capsys):
    code, out, _ = run(capsys, "ext", "hemi", "--n", "1", "--src", "V1^s",
                       "--dst", "V0^a", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"ext": {"pairs": [
        {"src": "V_1^s", "dst": "V_0", "dims": [1], "certified": None}
    ]}}


def test_ext_hemi_outside_the_degree_one_kinds_is_zero_by_both_methods(capsys):
    # V_1^a -> V_1^a is not a pair the oracle computes; both routes say 0.
    argv = ("ext", "hemi", "--n", "1", "--src", "V1^a", "--dst", "V1^a", "--method", "both")
    assert run(capsys, *argv) == (0, "0\n0\n", "")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"ext": {"pairs": [
        {"src": "V_1^a", "dst": "V_1^a", "dims": [0], "certified": None}
    ]}}


def test_ext_hemi_oracle_divergence_is_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ext_simple_closed", lambda n, s, d, deg: 7)
    for fmt, expected_out in (("text", "7\n1\n"), ("json", "")):
        code, out, err = run(capsys, "ext", "hemi", "--n", "1", "--src", "V1^s",
                             "--dst", "V0^a", "--method", "both", "--format", fmt)
        assert code == 2
        assert out == expected_out
        assert "oracle" in err


def test_ext_hemi_rejects_bad_weight_syntax(capsys):
    code, _, err = run(capsys, "ext", "hemi", "--n", "1", "--src", "V2",
                       "--dst", "V0^a")
    assert code == 1
    assert "tag" in err
    for dst in ("V\u0660^a", "V1^a\n"):  # an Arabic-Indic zero; a trailing newline
        code, out, err = run(capsys, "ext", "hemi", "--n", "1", "--src", "V1^s", "--dst", dst)
        assert (code, out) == (1, "")
        assert err == f"error: unknown simple-module descriptor {dst!r}\n"


def test_ext_hemi_rejects_nonpositive_n(capsys):
    code, _, _ = run(capsys, "ext", "hemi", "--n", "0", "--src", "V1^s",
                     "--dst", "V0^a")
    assert code == 1


# ----------------------------------------------------------------------- quiver

def test_quiver_trivial_dot_golden(capsys):
    code, out, _ = run(capsys, "quiver", "trivial", "--lambdas", "1")
    assert code == 0
    assert out == (
        "digraph G {\n"
        '  "K";\n'
        '  "M^a(1)";\n'
        '  "M^s(1)";\n'
        '  "K" -> "K";\n'
        '  "K" -> "K";\n'
        '  "M^a(1)" -> "M^a(1)";\n'
        '  "M^s(1)" -> "M^s(1)";\n'
        "}\n"
    )


def test_quiver_trivial_json_figure(capsys):
    code, out, _ = run(capsys, "quiver", "trivial", "--lambdas", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [v["label"] for v in doc["vertices"]] == ["K", "M^a(1)", "M^s(1)"]
    assert doc["edges"] == [
        {"src": 0, "dst": 0, "mult": 2},
        {"src": 1, "dst": 1, "mult": 1},
        {"src": 2, "dst": 2, "mult": 1},
    ]


def test_quiver_trivial_rejects_zero_eigenvalue(capsys):
    code, _, _ = run(capsys, "quiver", "trivial", "--lambdas", "0")
    assert code == 1


def test_quiver_trivial_refuses_exponent_notation(capsys):
    # Fraction("1e5000") would be a 5001-digit integer that str() refuses
    code, out, err = run(capsys, "quiver", "trivial", "--lambdas", "1e5000")
    assert code == 1
    assert out == ""
    assert err == "error: not a rational number: '1e5000'\n"


def test_quiver_hemi_with_verification(capsys):
    code, out, _ = run(capsys, "quiver", "hemi", "--n", "1", "--max-weight", "2",
                       "--verify", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    labels = [v["label"] for v in doc["vertices"]]
    assert labels == ["V_0", "V_1^s", "V_1^a", "V_2^s", "V_2^a"]


def test_quiver_hemi_output_deterministic(capsys):
    argv = ("quiver", "hemi", "--n", "2", "--max-weight", "4", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# --------------------------------------------------------------------------- ce

def test_ce_text_output(capsys):
    code, out, _ = run(capsys, "ce", "--module", "V2", "--pmax", "2")
    assert code == 0
    assert out == "H^0 = 0\nH^1 = 0\nH^2 = 0\n"


def test_ce_trivial_module_json(capsys):
    code, out, _ = run(capsys, "ce", "--module", "K", "--pmax", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"H": [1, 0, 0, 1]}


def test_ce_rejects_tagged_module(capsys):
    code, _, err = run(capsys, "ce", "--module", "V2^s", "--pmax", "2")
    assert code == 1
    assert "plain weight" in err
    for module in ("V\u0662", "V2\n"):  # an Arabic-Indic two; a trailing newline
        code, out, err = run(capsys, "ce", "--module", module, "--pmax", "2")
        assert (code, out) == (1, "")
        assert "plain weight" in err


# ------------------------------------------------------------ file subcommands

def test_check_reports_valid_algebra(capsys, tmp_path):
    path = write_json(tmp_path, "a.json", TRIVIAL_ALGEBRA)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out == (
        "dim: 1\n"
        "leibniz identity: OK\n"
        "leibniz kernel dim: 0\n"
        "lie quotient dim: 1\n"
    )


def test_check_computes_the_leibniz_kernel_once(capsys, tmp_path, monkeypatch):
    # leibniz_kernel is the one caller of image_basis in algebra.py, and
    # the kernel dimension is read off quotient_data.
    path = write_json(tmp_path, "a.json", algebra_to_spec(hemi_sl2(1)))
    calls = []
    real = algebra.image_basis
    monkeypatch.setattr(algebra, "image_basis", lambda m: calls.append(m) or real(m))
    algebra.quotient_data.cache_clear()
    assert run(capsys, "check", path) == (
        0, "dim: 5\nleibniz identity: OK\nleibniz kernel dim: 2\nlie quotient dim: 3\n", "")
    assert len(calls) == 1


def test_check_flags_broken_algebra(capsys, tmp_path):
    path = write_json(tmp_path, "a.json", BROKEN_ALGEBRA)
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "leibniz identity: FAIL" in out


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("text", [
    pytest.param('{"dim": 1, "bracket": [[[' + "7" * 5000 + ']]]}', id="int-digit-limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no int-to-str digit limit")),
    pytest.param("[" * 200_000 + "]" * 200_000, id="nesting-depth"),
])
def test_check_malformed_json_is_one_error_line(capsys, tmp_path, text):
    # The decoder refuses both with ValueError or RecursionError, not
    # json.JSONDecodeError.
    path = tmp_path / "a.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


def test_cohomology_from_files(capsys, tmp_path):
    apath = write_json(tmp_path, "a.json", TRIVIAL_ALGEBRA)
    bpath = write_json(tmp_path, "b.json", ANTI_BIMODULE)
    code, out, _ = run(capsys, "cohomology", "--algebra", apath,
                       "--bimodule", bpath, "--qmax", "2")
    assert code == 0
    assert out == "HL^0 = 1\nHL^1 = 0\nHL^2 = 0\n"
    code, out, _ = run(capsys, "cohomology", "--algebra", apath,
                       "--bimodule", bpath, "--qmax", "2", "--format", "json")
    assert json.loads(out) == {"HL": [1, 0, 0]}


def test_cohomology_bases_flag(capsys, tmp_path):
    apath = write_json(tmp_path, "a.json", TRIVIAL_ALGEBRA)
    bpath = write_json(tmp_path, "b.json", ANTI_BIMODULE)
    code, out, _ = run(capsys, "cohomology", "--algebra", apath,
                       "--bimodule", bpath, "--qmax", "1", "--bases")
    assert code == 0
    assert "degree 0 cocycles:" in out
    assert "  [1]" in out
    code, out, _ = run(capsys, "cohomology", "--algebra", apath,
                       "--bimodule", bpath, "--qmax", "1", "--format", "json",
                       "--bases")
    doc = json.loads(out)
    assert doc["bases"][0]["cocycles"] == [["1"]]


DATA = Path(__file__).resolve().parent / "data"


def test_cohomology_bases_golden(capsys, tmp_path):
    # --bases prints the bases of all of Z^q and B^q from the full complex;
    # the files hold that output for V_1^a over hemi_sl2(1) as it was
    # before leibniz_cohomology switched to the eigenvalue-0 block.
    h = hemi_sl2(1)
    apath = write_json(tmp_path, "a.json", algebra_to_spec(h))
    bpath = write_json(tmp_path, "b.json",
                       bimodule_to_spec(antisymmetric(h, simple_module(1).underlying)))
    for fmt, suffix in (("text", "txt"), ("json", "json")):
        code, out, err = run(capsys, "cohomology", "--algebra", apath, "--bimodule", bpath,
                             "--qmax", "2", "--bases", "--format", fmt)
        golden = (DATA / f"cohomology_bases_hemi1_V1a.{suffix}").read_text(encoding="utf-8")
        assert (code, out, err) == (0, golden, "")


def test_cohomology_rejects_invalid_bimodule(capsys, tmp_path):
    apath = write_json(tmp_path, "a.json", TRIVIAL_ALGEBRA)
    bad = write_json(tmp_path, "b.json", {"dim": 1, "left": [[[1]]], "right": [[[1]]]})
    code, _, err = run(capsys, "cohomology", "--algebra", apath,
                       "--bimodule", bad, "--qmax", "1")
    assert code == 1
    assert err.startswith("error:")


def test_cohomology_names_the_failing_bimodule_axiom(capsys, tmp_path):
    # L = 2, R = 1 over the one-dimensional algebra: R (L + R) = 3 != 0.
    apath = write_json(tmp_path, "a.json", TRIVIAL_ALGEBRA)
    bad = write_json(tmp_path, "b.json", {"dim": 1, "left": [[[2]]], "right": [[[1]]]})
    assert run(capsys, "cohomology", "--algebra", apath, "--bimodule", bad, "--qmax", "1") == (
        1, "", "error: bimodule axioms fail: (MLL) fails at basis pair (0, 0)\n")


# ----------------------------------------------------------------- usage paths

def test_usage_error_is_exit_one(capsys):
    code, _, err = run(capsys, "ext", "trivial", "--src", "K", "--dst", "K")
    assert code == 1
    assert "error:" in err


def test_unknown_subcommand_is_exit_one(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_help_is_exit_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "subcommand" in out or "usage" in out


def test_module_entry_point_matches_main(capsys):
    # `python -m leibniz_quiver.cli` runs cli.entry through the __main__
    # guard: same streams as cli.main, and its return value as exit code.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    for argv, code in ((["quiver", "hemi", "--n", "1", "--max-weight", "2", "--verify"], 0),
                       (["quiver", "trivial", "--lambdas", "1e3"], 1)):
        proc = subprocess.run([sys.executable, "-m", "leibniz_quiver.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
        assert proc.returncode == code


def test_weights_beyond_budget_are_refused_before_any_module(capsys, monkeypatch):
    # Under a budget of 6: V_6 has dimension 7, Hom(h, V_1) over V_1 x_hs sl2
    # has 5 * 2 and Hom(h, V_0) over V_3 x_hs sl2 has 7 * 1.
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 6)
    simple_module.cache_clear()  # a cached module would skip its check
    built = []
    init = LeftModule.__init__

    def spy(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(LeftModule, "__init__", spy)
    for argv, space in (
            (["ce", "--module", "V6", "--pmax", "0"], "the module V_6 has dimension 7"),
            (["ext", "hemi", "--n", "1", "--src", "V1^s", "--dst", "V1^a", "--method", "oracle"],
             "Hom(h, V_1) over V_1 x_hs sl2 has dimension 10"),
            (["quiver", "hemi", "--n", "3", "--max-weight", "1", "--verify"],
             "Hom(h, V_0) over V_3 x_hs sl2 has dimension 7")):
        code, out, err = run(capsys, *argv)
        assert (code, out, built) == (1, "", [])
        assert err == f"error: {space}, above the budget of 6\n"


def test_quiver_window_beyond_budget_is_refused_before_any_vertex(capsys, monkeypatch):
    # the window 0..2 has (2 + 1)^2 = 9 source-target pairs
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 8)
    built = []
    descriptor = quiver.SimpleDescriptor

    def spy(*args):
        built.append(args)
        return descriptor(*args)

    monkeypatch.setattr(quiver, "SimpleDescriptor", spy)
    code, out, err = run(capsys, "quiver", "hemi", "--n", "1", "--max-weight", "2")
    assert (code, out, built) == (1, "", [])
    assert err == "error: the weight window 0..2 has 9 source-target pairs, above the budget of 8\n"


def test_degree_ranges_beyond_budget_are_exit_one(capsys, tmp_path, monkeypatch):
    # each space is at most 3-dimensional; the 9 degrees 0..8 are too many
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 8)
    apath = write_json(tmp_path, "a.json", TRIVIAL_ALGEBRA)
    bpath = write_json(tmp_path, "b.json", ANTI_BIMODULE)
    for argv in (["ce", "--module", "V0", "--pmax", "7"],
                 ["cohomology", "--algebra", apath, "--bimodule", bpath, "--qmax", "7"],
                 ["ext", "trivial", "--src", "K", "--dst", "K", "--nmax", "8"]):
        assert run(capsys, *argv) == (
            1, "", "error: the degree range 0..8 has 9 degrees, above the budget of 8\n"), argv


def test_cohomology_beyond_budget_is_exit_one(capsys, tmp_path, monkeypatch):
    # --bases reads the full complex, whose d_5 maps into all 139 968
    # cochains of CL^6 at qmax 5; without it, qmax 6 builds blocks of
    # 70 848 rows for d_5.
    h = hemi_sl2(2)
    apath = write_json(tmp_path, "a.json", algebra_to_spec(h))
    bpath = write_json(tmp_path, "b.json",
                       bimodule_to_spec(antisymmetric(h, simple_module(2).underlying)))
    built = []
    monkeypatch.setattr(cohomology, "_block_differentials", lambda *args: built.append(args))
    for qmax, bases, rows in (("5", ["--bases"], 139968), ("6", [], 70848)):
        code, out, err = run(capsys, "cohomology", "--algebra", apath, "--bimodule", bpath,
                             "--qmax", qmax, *bases)
        assert code == 1 and out == "" and built == []
        assert err == (f"error: the block differential d_5 has {rows} rows, "
                       f"above the budget of {cohomology.COCHAIN_BUDGET}\n")


def test_cohomology_over_the_zero_algebra_counts_cl0(capsys, tmp_path):
    # CL^0 is the bimodule itself; with or without --bases it is refused
    # before any matrix is built.
    apath = write_json(tmp_path, "a.json", {"dim": 0, "bracket": []})
    size = cohomology.COCHAIN_BUDGET + 1
    bpath = write_json(tmp_path, "b.json", {"dim": size, "left": [], "right": []})
    for bases in ([], ["--bases"]):
        assert run(capsys, "cohomology", "--algebra", apath, "--bimodule", bpath,
                   "--qmax", "1", *bases) == (
            1, "", f"error: the cochain space CL^0 has dimension {size}, "
                   f"above the budget of {cohomology.COCHAIN_BUDGET}\n")


def test_cohomology_past_the_int_to_str_limit_is_one_error_line(capsys, tmp_path):
    # CL^49998 over hemi_sl2(1) with V_1^a has 5^49998 * 2, about
    # 2.5 * 10^34947 cochains, too many digits for str(); the pass counts
    # only what it builds, and its weight table, 4q + 3 eigenvalues in
    # degree q >= 1 and 2 in degree 0, passes the budget at CL^157.
    h = hemi_sl2(1)
    apath = write_json(tmp_path, "a.json", algebra_to_spec(h))
    bpath = write_json(tmp_path, "b.json",
                       bimodule_to_spec(antisymmetric(h, simple_module(1).underlying)))
    code, out, err = run(capsys, "cohomology", "--algebra", apath, "--bimodule", bpath,
                         "--qmax", "49998")
    assert (code, out) == (1, "")
    assert err == ("error: the weight table of CL^0..CL^157 has 50085 entries, "
                   f"above the budget of {cohomology.COCHAIN_BUDGET}\n")


def test_algebra_spec_beyond_budget_is_exit_one(capsys, tmp_path):
    # 37 x 37 empty cells ask for a table of 37^3 = 50 653 slots
    dim = 37
    apath = write_json(tmp_path, "a.json", {"dim": dim, "bracket": [[[]] * dim] * dim})
    bpath = write_json(tmp_path, "b.json", ANTI_BIMODULE)
    err = "error: the bracket table of the algebra has 50653 entries, above the budget of 50000\n"
    assert run(capsys, "check", apath) == (1, "", err)
    assert run(capsys, "cohomology", "--algebra", apath, "--bimodule", bpath,
               "--qmax", "1") == (1, "", err)
