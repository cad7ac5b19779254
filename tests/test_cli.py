"""Command-line interface: round trips, determinism, exit codes."""

import json
import math
import re

import numpy as np
import pytest

from bochner import (EuclideanSpace, chsc_model, load_curvature, random_kahler_curvature,
                     random_quaternion_kahler_curvature, save_curvature)
from bochner.cli import main

from oracles import ricci_naive, structure_model_naive


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_model_chsc_file_and_consumers(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, out, err = run_cli(capsys, "model", "chsc", "--n", "3", "--c", "4", "-o", str(path))
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["dim"] == 6
    assert obj["flags"] == ["kahler"]
    # accepted downstream without warnings
    code, out, err = run_cli(capsys, "spectrum", "-i", str(path), "--algebra", "u")
    assert code == 0
    spec = json.loads(out)
    assert len(spec["eigenvalues"]) == 9
    assert min(spec["eigenvalues"]) > 0
    assert spec["leakage"] < 1e-9


def test_model_hpm_and_quaternion_consumers(tmp_path, capsys):
    path = tmp_path / "q.json"
    code, _, _ = run_cli(capsys, "model", "hpm", "--m", "2", "-o", str(path))
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["dim"] == 8
    assert obj["flags"] == ["quaternion"]
    code, out, _ = run_cli(capsys, "spectrum", "-i", str(path), "--algebra", "sp")
    assert code == 0
    spec = json.loads(out)
    assert len(spec["eigenvalues"]) == 13
    code, out, _ = run_cli(capsys, "decompose", "quaternion", "-i", str(path))
    assert code == 0
    dec = json.loads(out)
    assert dec["hp_coefficient"] == pytest.approx(1.0)
    code, out, _ = run_cli(capsys, "sharp-norm", "-i", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["lhs_tensor"] == pytest.approx(0.0, abs=1e-12)


def test_model_flat_stdout(capsys):
    code, out, err = run_cli(capsys, "model", "flat", "--d", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 6
    assert all(re == 0.0 and im == 0.0 for re, im in obj["components"])


def test_spectrum_flat_zeros(tmp_path, capsys):
    path = tmp_path / "flat.json"
    run_cli(capsys, "model", "flat", "--n", "3", "-o", str(path))
    code, out, _ = run_cli(capsys, "spectrum", "-i", str(path), "--algebra", "u")
    assert code == 0
    spec = json.loads(out)
    assert spec["eigenvalues"] == [0.0] * 9


def test_spectrum_rejects_leaky_operator(tmp_path, capsys):
    # a generic so(4)-supported tensor leaks off u(2)
    import bochner

    rng = np.random.default_rng(5)
    rm = bochner.random_curvature(bochner.EuclideanSpace.complex_space(2), rng)
    path = tmp_path / "generic.json"
    bochner.save_curvature(rm, str(path))
    code, out, err = run_cli(capsys, "spectrum", "-i", str(path), "--algebra", "u")
    assert code == 1
    assert "residual" in err


def test_decompose_kahler(tmp_path, capsys):
    path = tmp_path / "m.json"
    run_cli(capsys, "model", "chsc", "--n", "2", "--c", "4", "-o", str(path))
    code, out, _ = run_cli(capsys, "decompose", "kahler", "-i", str(path))
    assert code == 0
    dec = json.loads(out)
    assert dec["scal"] == pytest.approx(4 * 2 * 3)
    bochner_part = np.array(dec["bochner"]["components"])
    assert np.abs(bochner_part).max() < 1e-10


def test_weitz_ric_roundtrip(tmp_path, capsys):
    import bochner

    mpath = tmp_path / "m.json"
    run_cli(capsys, "model", "cs", "--d", "4", "--c", "1", "-o", str(mpath))
    space = bochner.EuclideanSpace.complex_space(2)
    T = bochner.ComplexTensor.basis_covector(space, 0)
    tpath = tmp_path / "t.json"
    bochner.save_tensor(T, str(tpath))
    code, out, _ = run_cli(capsys, "weitz", "ric", "-i", str(mpath), "-t", str(tpath))
    assert code == 0
    obj = json.loads(out)
    comps = [complex(re, im) for re, im in obj["components"]]
    assert comps[0] == pytest.approx(3.0)  # (d - 1) eigenvalue


def test_weitz_term(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    run_cli(capsys, "model", "chsc", "--n", "2", "--c", "4", "-o", str(mpath))
    import bochner

    space = bochner.EuclideanSpace.complex_space(2)
    tpath = tmp_path / "t.json"
    bochner.save_tensor(bochner.ComplexTensor.basis_covector(space, 0), str(tpath))
    code, out, _ = run_cli(capsys, "weitz", "term", "-i", str(mpath), "-t", str(tpath),
                           "--algebra", "u")
    assert code == 0
    term = json.loads(out)
    assert term["route_deviation"] < 1e-9
    assert term["value"] > 0


def test_weitz_verify_prop24(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    run_cli(capsys, "model", "chsc", "--n", "2", "--c", "4", "-o", str(mpath))
    code, out, _ = run_cli(capsys, "weitz", "verify", "prop24", "-i", str(mpath),
                           "--algebra", "u", "--samples", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_pass"]
    assert len(rep["cases"]) == 9


def _relative_deviations(rep):
    """|lhs - rhs| / max(|lhs|, |rhs|) of each case of a report."""
    return [abs(c["lhs"] - c["rhs"]) / max(abs(c["lhs"]), abs(c["rhs"]), 1e-300)
            for c in rep["cases"]]


def test_forms_check_prop27(capsys):
    code, out, err = run_cli(capsys, "forms", "check-prop27", "--n", "2", "--p", "1",
                             "--q", "0", "--k", "0", "--samples", "5", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert max(_relative_deviations(rep)) < 1e-9


def test_forms_check_prop28(capsys):
    code, out, _ = run_cli(capsys, "forms", "check-prop28", "--n", "3", "--p", "2",
                           "--q", "1", "--k", "0", "--samples", "40", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert max(c["lhs"] for c in rep["cases"]) <= 1.0 + 1e-9


def test_check_pq_chsc_vanishing(capsys):
    code, out, _ = run_cli(capsys, "check", "pq", "--n", "2", "--p", "1", "--q", "0",
                           "--kappa", "0", "--model", "chsc", "--c", "4")
    assert code == 0
    v = json.loads(out)
    assert v["conclusion"] == "vanishing"
    assert v["condition_value"] > 0


def test_check_pq_flat_parallel(capsys):
    code, out, _ = run_cli(capsys, "check", "pq", "--n", "2", "--p", "1", "--q", "0",
                           "--kappa", "0", "--model", "flat")
    assert code == 0
    v = json.loads(out)
    assert v["conclusion"] == "parallel"
    assert v["condition_value"] == 0.0


def test_check_pq_sums_the_spectrum_exactly(tmp_path, capsys):
    # C(4, 2, 0) = 3, and -1e16 - 1 + 1e16 is -1 exactly; summed left to
    # right in floats, -1e16 - 1 rounds to -1e16 and the sum to 0 (parallel)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([-1e16, -1.0] + [1e16] * 14))
    code, out, _ = run_cli(capsys, "check", "pq", "--n", "4", "--p", "2", "--q", "0",
                           "--spectrum", str(spec))
    assert code == 2
    v = json.loads(out)
    assert v["conclusion"] == "inconclusive"
    assert v["condition_value"] == -1.0


@pytest.mark.parametrize("values", [[1e-13, 0.0, 1.0, 1.0], [0.0, 1e-13, 1.0, 1.0]],
                         ids=["descending", "ascending"])
def test_check_pq_sums_the_smallest_values(values, tmp_path, capsys):
    # C(2, 2, 0) = 1; a step down below the 1e-12 ordering slack must not
    # let the sum take the larger value first (that read "vanishing")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(values))
    code, out, _ = run_cli(capsys, "check", "pq", "--n", "2", "--p", "2", "--q", "0",
                           "--spectrum", str(spec))
    assert code == 0
    v = json.loads(out)
    assert v["conclusion"] == "parallel"
    assert v["condition_value"] == 0.0


def test_check_pq_stratum_flag(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]))
    code, out, _ = run_cli(capsys, "check", "pq", "--n", "3", "--p", "2", "--q", "1",
                           "--stratum", "1", "--kappa", "0", "--spectrum", str(spec))
    assert code == 0
    v = json.loads(out)
    assert v["arithmetic"]["C"] == "3"
    assert v["condition_value"] == pytest.approx(3.0)


def test_check_bochner_zero_spectrum(tmp_path, capsys):
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps([0.0] * 9))
    code, out, _ = run_cli(capsys, "check", "bochner", "--n", "3", "--k", "0", "--Q", "2",
                           "--spectrum", str(zeros))
    assert code == 0
    v = json.loads(out)
    assert v["conclusion"] == "bochner_flat"
    assert "user-asserted" in v["notes"]


def test_check_quaternion_inadmissible_k(capsys):
    code, out, _ = run_cli(capsys, "check", "quaternion", "--m", "2", "--k", "0.6",
                           "--Q", "2", "--model", "hpm")
    assert code == 2
    v = json.loads(out)
    assert v["kappa_admissible"] is False


def test_check_accepts_spectrum_command_output(tmp_path, capsys):
    # the spectrum command's JSON object feeds straight into check
    mpath = tmp_path / "m.json"
    run_cli(capsys, "model", "chsc", "--n", "2", "--c", "4", "-o", str(mpath))
    code, out, _ = run_cli(capsys, "spectrum", "-i", str(mpath), "--algebra", "u")
    assert code == 0
    spath = tmp_path / "spec.json"
    spath.write_text(out)
    code, out, _ = run_cli(capsys, "check", "pq", "--n", "2", "--p", "1", "--q", "0",
                           "--kappa", "0", "--spectrum", str(spath))
    assert code == 0
    assert json.loads(out)["conclusion"] == "vanishing"


def test_check_error_exit(tmp_path, capsys):
    short = tmp_path / "short.json"
    short.write_text(json.dumps([0.0] * 3))
    code, out, err = run_cli(capsys, "check", "bochner", "--n", "3", "--k", "0",
                             "--spectrum", str(short))
    assert code == 1
    assert "error" in err


def test_weitz_verify_lemma26(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    run_cli(capsys, "model", "chsc", "--n", "2", "--c", "4", "-o", str(mpath))
    code, out, err = run_cli(capsys, "weitz", "verify", "lemma26", "-i", str(mpath),
                             "--algebra", "u", "--C", "2", "--ell", "1", "--kappa", "-1",
                             "--rank", "2", "--samples", "10")
    assert code == 0
    rep = json.loads(out)
    assert "(holds)" in err and rep["cases"]
    assert rep["all_pass"]


def test_weitz_ric_lichnerowicz_scaling(tmp_path, capsys):
    import bochner

    mpath = tmp_path / "m.json"
    run_cli(capsys, "model", "cs", "--d", "4", "--c", "1", "-o", str(mpath))
    space = bochner.EuclideanSpace.complex_space(2)
    tpath = tmp_path / "t.json"
    bochner.save_tensor(bochner.ComplexTensor.basis_covector(space, 0), str(tpath))
    code, out, _ = run_cli(capsys, "weitz", "ric", "-i", str(mpath), "-t", str(tpath),
                           "--c", "0.5")
    assert code == 0
    obj = json.loads(out)
    assert complex(*obj["components"][0]) == pytest.approx(1.5)  # (d-1)/2


def test_check_einstein_cli(capsys):
    code, out, _ = run_cli(capsys, "check", "einstein", "--n", "4", "--k", "0",
                           "--Q", "2", "--model", "chsc", "--c", "2")
    assert code == 0
    v = json.loads(out)
    assert v["conclusion"] == "flat"
    assert v["condition_value"] > 0


def test_check_lq_cli(capsys):
    code, out, _ = run_cli(capsys, "check", "lq", "--n", "3", "--model", "chsc", "--c", "1")
    assert code == 0
    assert json.loads(out)["conclusion"] == "vanishing"


def test_forms_check_prop27_with_stratum(capsys):
    code, out, _ = run_cli(capsys, "forms", "check-prop27", "--n", "3", "--p", "2",
                           "--q", "1", "--k", "1", "--samples", "4", "--seed", "5")
    assert code == 0
    rep = json.loads(out)
    assert max(_relative_deviations(rep)) < 1e-8  # single-stratum configuration, exact everywhere


def test_algebra_export(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "algebra", "--algebra", "u", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 9
    assert len(obj["basis"]) == 9
    assert all(len(row) == 15 for row in obj["basis"])
    # rows are orthonormal coefficient vectors
    B = np.array(obj["basis"])
    assert np.abs(B @ B.T - np.eye(9)).max() < 1e-10
    path = tmp_path / "alg.json"
    code, _, _ = run_cli(capsys, "algebra", "--algebra", "sp", "--m", "2", "-o", str(path))
    assert code == 0
    assert json.loads(path.read_text())["dim"] == 13


def test_verify_suite_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "lemma212", "--seed", "42", "--samples", "5")
    code2, out2, _ = run_cli(capsys, "verify", "lemma212", "--seed", "42", "--samples", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["all_pass"]
    assert rep["seed"] == 42


@pytest.mark.parametrize("kind,dims", [
    ("flat", ["--n", "2"]),
    ("cs", ["--n", "2"]),
    ("chsc", ["--n", "2", "--c", "4"]),
    ("hpm", ["--m", "2"]),
])
def test_every_model_accepted_by_consumers(tmp_path, capsys, kind, dims):
    path = tmp_path / "model.json"
    code, _, _ = run_cli(capsys, "model", kind, *dims, "-o", str(path))
    assert code == 0
    algebra = "sp" if kind == "hpm" else "u"
    code, out, err = run_cli(capsys, "spectrum", "-i", str(path), "--algebra", algebra)
    if kind == "cs":
        # constant sectional curvature is not holonomy-reduced; leakage expected
        assert code == 1
        return
    assert code == 0
    assert "residual" not in err
    if kind in ("flat", "chsc"):
        code, _, _ = run_cli(capsys, "decompose", "kahler", "-i", str(path))
        assert code == 0
    if kind == "hpm":
        code, _, _ = run_cli(capsys, "decompose", "quaternion", "-i", str(path))
        assert code == 0
        code, _, _ = run_cli(capsys, "sharp-norm", "-i", str(path))
        assert code == 0


def test_verify_suites_pass(capsys):
    for suite, samples in (("identities", "20"), ("prop24", "2"), ("prop27", "2"),
                           ("prop28", "20"), ("lemma26", "10"), ("lemma213", "3"),
                           ("bochner-tracefree", "5")):
        code, out, err = run_cli(capsys, "verify", suite, "--samples", samples)
        assert code == 0, (suite, err)
        rep = json.loads(out)
        assert rep["all_pass"], suite


@pytest.mark.parametrize("argv,message", [
    (["check", "pq", "--n", "2", "--p", "1", "--kappa", "0", "--model", "chsc", "--c", "4"],
     "requires --q"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "hpm"], "requires --m"),
    (["check", "lq", "--n", "3", "--spectrum", "no-such-spectrum.json"], "no-such-spectrum"),
    (["check", "quaternion", "--m", "2", "--model", "chsc"], "residual"),
    (["check", "quaternion", "--m", "2", "--k", "0.6", "--Q", "2", "--model", "chsc"],
     "residual"),
    (["check", "pq", "--n", "2", "--p", "3", "--q", "0", "--model", "chsc"], "out of range"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "xyz"],
     "unknown model 'xyz'"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0"], "provide --spectrum FILE"),
    (["model", "hpm"], "model hpm requires --m"),
    (["model", "chsc"], "model chsc requires --n"),
    (["model", "cs"], "one of --n, --m, --d"),
    (["weitz", "ric", "-i", "no-such-curvature.json"], "requires -t TENSOR"),
    (["weitz", "verify", "-i", "no-such-curvature.json"], "requires a target"),
    (["verify", "prop28", "--samples", "0"], "--samples must be at least 1"),
    (["verify", "all", "--samples", "-1"], "--samples must be at least 1"),
    (["weitz", "verify", "prop24", "-i", "no-such-curvature.json", "--samples", "0"],
     "--samples must be at least 1"),
    (["weitz", "verify", "lemma26", "-i", "no-such-curvature.json", "--samples", "0"],
     "--samples must be at least 1"),
    (["forms", "check-prop28", "--n", "3", "--p", "2", "--q", "1", "--samples", "0"],
     "--samples must be at least 1"),
    (["forms", "check-prop27", "--n", "2", "--p", "1", "--q", "0", "--samples", "-1"],
     "--samples must be at least 0"),
    (["check", "pq", "--n", "3", "--p", "1", "--q", "1", "--stratum", "-1", "--model", "chsc"],
     "stratum k = -1 out of range"),
    (["forms", "check-prop28", "--n", "2", "--p", "1", "--q", "1", "--k", "-1", "--samples", "1"],
     "stratum k = -1 out of range"),
    (["forms", "check-prop27", "--n", "2", "--p", "1", "--q", "1", "--k", "2"],
     "stratum k = 2 out of range"),
    (["algebra", "--algebra", "u", "--d", "5"], "must be positive and even, got 5"),
    (["model", "chsc", "--n", "2", "--c", "nan"], "must be finite, got nan"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "chsc", "--c", "inf"],
     "must be finite, got inf"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "chsc", "--kappa", "0.1",
      "--rho", "inf"], "rho must be finite, got inf"),
    (["check", "quaternion", "--m", "2", "--model", "hpm", "--k", "0.1", "--rho", "inf"],
     "rho must be finite, got inf"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "chsc", "--kappa", "0.1",
      "--rho", "nan"], "rho must be finite, got nan"),
    (["check", "bochner", "--n", "2", "--model", "chsc", "--k", "inf"],
     "k must be finite, got inf"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "chsc", "--kappa", "inf"],
     "kappa must be finite, got inf"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "chsc", "--kappa", "0.1",
      "--Q", "inf"], "Q must be finite, got inf"),
    (["weitz", "verify", "lemma26", "-i", "chsc.json", "--C", "inf"], "C must be finite, got inf"),
    (["weitz", "verify", "lemma26", "-i", "chsc.json", "--kappa", "nan"],
     "kappa must be finite, got nan"),
    (["weitz", "ric", "-i", "chsc.json", "-t", "t.json", "--c", "nan"], "c must be finite, got nan"),
    (["verify", "lemma26", "--tol", "inf"], "tol must be finite, got inf"),
    (["weitz", "verify", "lemma26", "-i", "chsc.json", "--rank", "0"],
     "--rank must be at least 1"),
    (["check", "lq", "--n", "-2", "--spectrum", "four.json"], "n must be an integer of at least 1"),
    (["check", "lq", "--n", "2", "--spectrum", "one.json"], "differs from n^2 = 4"),
    (["check", "lq", "--n", "3", "--spectrum", "four.json"], "differs from n^2 = 9"),
    (["check", "quaternion", "--m", "0", "--spectrum", "three.json"],
     "m must be an integer of at least 1, got 0"),
    (["check", "bochner", "--n", "-1", "--spectrum", "one.json"],
     "n must be an integer of at least 1, got -1"),
    (["check", "quaternion", "--m", "-1", "--spectrum", "four.json"],
     "m must be an integer of at least 1, got -1"),
    (["forms", "check-prop28", "--n", "4", "--p", "3", "--q", "3", "--k", "1"],
     "stratum Omega^1 ^ primitive(2, 2) is empty at n = 4"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--spectrum", "three.json"],
     "spectrum length 3 differs from n^2 = 4"),
    (["model", "cs", "--n", "2", "--m", "3"], "conflicting size flags --n and --m"),
    (["algebra", "--algebra", "u", "--n", "2", "--m", "3"], "conflicting size flags --n and --m"),
    (["algebra", "--algebra", "u", "--n", "2", "--d", "8"], "conflicting size flags --n and --d"),
    (["model", "chsc", "--n", "2", "--d", "8"], "conflicting size flags --n and --d"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--spectrum", "huge4.json"],
     "partial sum of the spectrum overflows"),
    (["check", "bochner", "--n", "3", "--spectrum", "huge9.json"],
     "partial sum of the spectrum overflows"),
    (["check", "einstein", "--n", "3", "--spectrum", "huge9.json"],
     "partial sum of the spectrum overflows"),
    (["check", "lq", "--n", "3", "--spectrum", "huge9.json"],
     "partial sum of the spectrum overflows"),
    (["check", "pq", "--n", "3", "--p", "1", "--q", "0", "--spectrum", "huge9.json"],
     "partial sum of the spectrum overflows"),
    (["model", "chsc", "--n", "2", "--c", "1e200"], "|Rm|^2 overflows"),
    (["model", "chsc", "--n", "2", "--c", "1e308"], "|Rm|^2 overflows"),
    (["sharp-norm", "-i", "chsc1e200.json"], "|Rm|^2 overflows"),
    (["sharp-norm", "-i", "chsc1e308.json"], "|Rm|^2 overflows"),
    (["decompose", "kahler", "-i", "chsc1e308.json"], "|Rm|^2 overflows"),
    (["spectrum", "--algebra", "u", "-i", "chsc1e308.json"], "|Rm|^2 overflows"),
    (["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "chsc", "--c", "1e200"],
     "|Rm|^2 overflows"),
    (["sharp-norm", "-i", "kahler2.json"], "sharp-norm report overflows a float"),
    (["sharp-norm", "-i", "kahler3.json"], "sharp-norm report overflows a float"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_bad_input_is_an_error_line(tmp_path, monkeypatch, capsys, argv, message):
    # malformed input, non-finite weights, models that leak off the algebra
    # and empty suites exit 1 with an error line and no output, never a
    # traceback
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "model", "chsc", "--n", "2", "-o", "chsc.json")
    (tmp_path / "t.json").write_text(json.dumps(
        {"dim": 4, "rank": 1, "j_convention": "block", "components": [[1.0, 0.0]] * 4}))
    # every huge value is finite; only their sum overflows a float
    for name, values in (("one", [5]), ("three", [1, 2, 3]), ("four", [-1, 2, 3, 4]),
                         ("huge4", [1e308] * 4), ("huge9", [1e308] * 9)):
        (tmp_path / f"{name}.json").write_text(json.dumps(values))
    # finite entries whose |Rm|^2 overflows, as `model` wrote them before it refused them
    for c in ("1e200", "1e308"):
        save_curvature(chsc_model(EuclideanSpace.complex_space(2), float(c)), f"chsc{c}.json")
    # valid Kahler tensors, |Rm|^2 at 0.9 and 0.5 of the float maximum, whose
    # sharp norms overflow
    for n, share in ((2, 0.9), (3, 0.5)):
        rm = random_kahler_curvature(EuclideanSpace.complex_space(n), np.random.default_rng(0))
        save_curvature(rm * math.sqrt(share * np.finfo(float).max / rm.norm2()), f"kahler{n}.json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_a_curvature_file_just_below_the_overflow_prints_finite_numbers(tmp_path, capsys):
    # at c = 2e153 the chsc model at n = 2 has |Rm|^2 = 4.8e307, below the float maximum
    path = str(tmp_path / "big.json")
    assert run_cli(capsys, "model", "chsc", "--n", "2", "--c", "2e153", "-o", path)[0] == 0
    for argv in (["sharp-norm"], ["decompose", "kahler"], ["spectrum", "--algebra", "u"]):
        code, out, err = run_cli(capsys, *argv, "-i", path)
        assert code == 0, (argv, err)
        assert "NaN" not in out and "Infinity" not in out, argv


def test_model_out_writes_what_stdout_prints_and_both_formats_load(tmp_path, capsys):
    # `model -o` keeps the components document of stdout; save_curvature
    # writes the operator document; every reader takes both alike
    path, compact = tmp_path / "m.json", tmp_path / "c.json"
    _, out, _ = run_cli(capsys, "model", "chsc", "--n", "3", "--c", "4")
    assert run_cli(capsys, "model", "chsc", "--n", "3", "--c", "4", "-o", str(path))[0] == 0
    assert path.read_text() == out and "components" in json.loads(out)
    rm = chsc_model(EuclideanSpace.complex_space(3), 4.0)
    save_curvature(rm, compact)
    assert json.loads(compact.read_text())["format"] == "operator"
    assert all(np.array_equal(load_curvature(p).array, rm.array) for p in (path, compact))
    for argv in (["sharp-norm"], ["decompose", "kahler"], ["spectrum", "--algebra", "u"]):
        outs = {run_cli(capsys, *argv, "-i", str(p))[1] for p in (path, compact)}
        assert len(outs) == 1, argv


def test_verify_prop28_samples_forms(capsys):
    code, out, _ = run_cli(capsys, "verify", "prop28", "--samples", "2", "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    ids = [c["id"] for c in rep["cases"]]
    assert "prop28/n2p1q0k0/sample001" in ids
    assert all(c["lhs"] <= 1.0 + 1e-12 for c in rep["cases"])


def test_forms_check_prop27_without_samples_checks_products(capsys):
    # with no random stratum forms the products are still checked
    code, out, _ = run_cli(capsys, "forms", "check-prop27", "--n", "3", "--p", "2", "--q", "1",
                           "--samples", "0")
    assert code == 0
    cases = json.loads(out)["cases"]
    assert len(cases) == 9
    assert all(c["id"].startswith("product") for c in cases)


def _malformed_curvature(path, edit, compact=False):
    """The n = 2 chsc file, written by `model -o` or, compact, by save_curvature, then edited."""
    if compact:
        save_curvature(chsc_model(EuclideanSpace.complex_space(2)), path)
    else:
        assert main(["model", "chsc", "--n", "2", "-o", str(path)]) == 0
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _set_component(index, value):
    def edit(obj):
        obj["components"][index] = value
    return edit


def _odd_dim(**fields):
    # the first 81 of the 256 components of the n = 2 file fill a rank-4 tensor at dim 3
    def edit(obj):
        obj.update(dim=3, components=obj["components"][:81], **fields)
    return edit


PAIRS = "[re, im] number pairs"


@pytest.mark.parametrize("edit,named", [
    (_set_component(0, ["a", "b"]), PAIRS),
    (_set_component(0, [None, 1.0]), PAIRS),
    (_set_component(0, 1.0), PAIRS),
    (_set_component(17, [True, 0.0]), PAIRS),  # the entry holds [1.0, 0.0]
    (_set_component(17, [math.nan, 0.0]), "finite"),
    (_set_component(17, [math.inf, 0.0]), "finite"),
    (lambda obj: obj.pop("dim"), "integer 'dim'"),
    (lambda obj: obj.update(flags=5), '"flags" must be a list'),
    (lambda obj: obj.update(j_convention="weird"), '"j_convention" must be "none" or "block"'),
    (_odd_dim(flags=[]), 'j_convention "block" needs an even dim'),
    (_odd_dim(j_convention="none"), "kahler flag needs an even dim"),
    (_set_component(17, [0.0, 0.5]), "curvature components must be real"),
], ids=["string-pair", "null-entry", "bare-number", "bool-entry", "nan-entry", "infinity-entry",
        "missing-dim", "scalar-flags", "unknown-j-convention", "odd-dim-block", "odd-dim-kahler",
        "imaginary-entry"])
def test_malformed_tensor_file_is_an_error_line(tmp_path, capsys, edit, named):
    # json.dumps writes NaN and Infinity as the bare tokens json.load reads back
    path = tmp_path / "bad.json"
    _malformed_curvature(path, edit)
    capsys.readouterr()
    for argv in (["sharp-norm"], ["decompose", "kahler"], ["spectrum", "--algebra", "u"]):
        code, out, err = run_cli(capsys, *argv, "-i", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and named in err


def _set_entry(index, value):
    def edit(obj):
        obj["operator"][index] = value
    return edit


# the upper triangle of the identity on Lambda^2 R^4, the cs model: Bianchi but not Kahler
IDENTITY_UPPER = [float(i == j) for i in range(6) for j in range(i, 6)]
NUMBERS = "list of finite numbers"


@pytest.mark.parametrize("edit,named", [
    (lambda obj: obj["operator"].pop(), "needs 21 numbers"),
    (lambda obj: obj.update(dim=6, flags=[]), "needs 120 numbers"),
    (_set_entry(3, None), NUMBERS),
    (_set_entry(3, True), NUMBERS),
    (_set_entry(3, "0.5"), NUMBERS),
    (_set_entry(3, [0.5, 0.0]), NUMBERS),
    (_set_entry(3, math.nan), NUMBERS),
    (_set_entry(3, math.inf), NUMBERS),
    (lambda obj: obj.pop("operator"), NUMBERS),
    (lambda obj: obj.update(operator=0.5), NUMBERS),
    (lambda obj: obj.update(format="components"), '"format" must be "operator"'),
    (lambda obj: obj.update(format=None), '"format" must be "operator"'),
    (_set_entry(5, 1.0), "first Bianchi identity violated"),  # R(e12, e34) alone
    (lambda obj: obj.update(operator=IDENTITY_UPPER), "Kahler pair invariance violated"),
    (lambda obj: obj.update(j_convention="weird"), '"j_convention" must be "none" or "block"'),
], ids=["short", "dim-6", "null-entry", "bool-entry", "string-entry", "pair-entry", "nan-entry",
        "infinity-entry", "missing-operator", "scalar-operator", "unknown-format", "null-format",
        "bianchi", "not-kahler", "unknown-j-convention"])
def test_malformed_operator_document_is_an_error_line(tmp_path, capsys, edit, named):
    path = tmp_path / "bad.json"
    _malformed_curvature(path, edit, compact=True)
    capsys.readouterr()
    for argv in (["sharp-norm"], ["decompose", "kahler"], ["spectrum", "--algebra", "u"]):
        code, out, err = run_cli(capsys, *argv, "-i", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and named in err


def test_an_overflowing_number_text_is_a_finite_error_line(tmp_path, capsys):
    # 1e400 parses to inf, which the number reader refuses in either format
    path = tmp_path / "bad.json"
    for compact, edit in ((False, _set_component(17, [4321.5, 0.0])), (True, _set_entry(3, 4321.5))):
        _malformed_curvature(path, edit, compact)
        text = path.read_text()
        assert text.count("4321.5") == 1
        path.write_text(text.replace("4321.5", "1e400"))
        capsys.readouterr()
        code, out, err = run_cli(capsys, "spectrum", "--algebra", "u", "-i", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("compact", [False, True], ids=["components", "operator"])
def test_an_integer_past_int64_reads_as_its_float(tmp_path, capsys, compact):
    # JavaScript's JSON.stringify(1e20) prints 100000000000000000000, an integer
    # that no numpy integer holds; a curvature file reads it as 1e20, as a
    # spectrum file does
    path = tmp_path / "cs.json"
    assert main(["model", "cs", "--d", "4", "-o", str(path)]) == 0
    if compact:
        save_curvature(load_curvature(str(path)), str(path))
    text = path.read_text()
    outputs = []
    for number in ("100000000000000000000", "1e+20"):
        path.write_text(text.replace("1.0", number))
        capsys.readouterr()
        code, out, err = run_cli(capsys, "spectrum", "--algebra", "so", "-i", str(path))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["eigenvalues"] == [1e20] * 6


@pytest.mark.parametrize("what,conclusion", [("einstein", "flat"), ("bochner", "bochner_flat")])
def test_gr24_flatness_verdicts_name_infinite_volume(tmp_path, capsys, what, conclusion):
    # the exact spectrum of the compact, non-flat Gr(2,4) meets the T4_1 and
    # T1_5 conditions with equality: the verdict holds only where the volume
    # is infinite, which the notes must name
    spec = tmp_path / "gr24.json"
    spec.write_text(json.dumps([0.0] * 9 + [4.0] * 6 + [8.0]))
    code, out, _ = run_cli(capsys, "check", what, "--n", "4", "--spectrum", str(spec))
    v = json.loads(out)
    assert (code, v["conclusion"], v["condition_value"], v["threshold"]) == (0, conclusion, 0.0, 0.0)
    assert "completeness, infinite volume, finite L^Q norm" in v["notes"]
    assert "user-asserted" in v["notes"]


@pytest.mark.parametrize("text", [
    "[0.5, null, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]",
    "[0.5, NaN, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]",
    "[0.5, Infinity, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]",
    '[0.5, "1.0", 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]',
    "[0.5, true, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]",
    '{"leakage": 0.0, "dim": 9}',
    '{"eigenvalues": 1.0}',
    "1.0",
    "[0.5, 1" + "0" * 400 + ", 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]",
    '{"eigenvalues": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5], "leakage": 1.0, "dim": 9}',
    '{"eigenvalues": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5], "leakage": null, "dim": 9}',
], ids=["null", "nan", "infinity", "string", "bool", "no-eigenvalues", "scalar-eigenvalues",
        "scalar", "huge-int", "leaks", "null-leakage"])
@pytest.mark.parametrize("argv", [
    ["check", "pq", "--n", "3", "--p", "1", "--q", "0"],
    ["check", "bochner", "--n", "3"],
], ids=["pq", "bochner"])
def test_malformed_spectrum_file_is_an_error_line(tmp_path, capsys, text, argv):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--spectrum", str(spec))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "spec.json" in err


@pytest.mark.parametrize("ratio,refused", [(1e-7, True), (1e-10, False)], ids=["1e-7", "1e-10"])
@pytest.mark.parametrize("kind", ["u", "sp"])
def test_every_support_guard_applies_one_leak_rule(tmp_path, capsys, rng, kind, ratio, refused):
    # a supported tensor plus a generic curvature perturbation whose residual on
    # the complement of the algebra is `ratio` * max(1, |R|_max): every guard
    # refuses 1e-7 and accepts 1e-10, the two sides of SUPPORT_TOL = 1e-8
    from bochner import curvature as curv
    from bochner.holonomy import cached_algebra
    from bochner.tensors import EuclideanSpace

    if kind == "u":
        space = EuclideanSpace.complex_space(2)
        base = curv.random_kahler_curvature(space, rng)
        guards = []
        check = ["check", "pq", "--n", "2", "--p", "1", "--q", "0"]
    else:
        space = EuclideanSpace.quaternionic_space(2)
        base = curv.random_quaternion_kahler_curvature(space, rng)
        guards = [["decompose", "quaternion"], ["sharp-norm"]]
        check = ["check", "quaternion", "--m", "2"]
    algebra = cached_algebra(space, kind)
    pert = curv.random_curvature(space, rng)
    t = ratio * max(1.0, np.abs(base.array).max()) / pert.leakage(algebra)
    rm = curv.AlgebraicCurvatureTensor(space, base.array + t * pert.array, quaternion=kind == "sp")
    assert rm.leakage(algebra) / max(1.0, np.abs(rm.operator).max()) == pytest.approx(ratio, rel=1e-3)
    path, spec = tmp_path / "rm.json", tmp_path / "spec.json"
    curv.save_curvature(rm, path)
    code, out, err = run_cli(capsys, "spectrum", "-i", str(path), "--algebra", kind)
    assert json.loads(out)["dim"] == algebra.dim  # printed either way
    spec.write_text(out)
    outcomes = {"spectrum": (code, err)}
    for argv in guards + [["weitz", "verify", "prop24", "--algebra", kind, "--samples", "1"]]:
        code, _, err = run_cli(capsys, *argv, "-i", str(path))
        outcomes[argv[0]] = (code, err)
    code, _, err = run_cli(capsys, *check, "--spectrum", str(spec))
    outcomes["check"] = (code, err)
    for name, (code, err) in outcomes.items():
        if refused:
            assert code == 1 and "leaks off the algebra: residual" in err, (name, err)
        else:
            # check exits 2 on an inconclusive verdict
            assert code in ((0, 2) if name == "check" else (0,)) and "error" not in err, (name, err)


@pytest.mark.parametrize("argv", [["verify", "lemma26", "--kappa", "-1", "--samples", "4"],
                                  ["term", "--algebra", "u"]], ids=["lemma26", "term"])
def test_weitz_commands_on_the_gram_restriction_refuse_a_leak(tmp_path, capsys, argv):
    # a generic so(4) perturbation of a positive Kahler model leaks off u(2);
    # the Gram restriction alone would hide it
    import bochner

    space = bochner.EuclideanSpace.complex_space(2)
    rm = (bochner.random_curvature(space, np.random.default_rng(12))
          + 3 * bochner.chsc_model(space, 4.0))
    path, tensor = tmp_path / "g.json", tmp_path / "t.json"
    bochner.save_curvature(rm, str(path))
    bochner.save_tensor(bochner.ComplexTensor.basis_covector(space, 0), str(tensor))
    code, out, err = run_cli(capsys, "weitz", *argv, "-i", str(path), "-t", str(tensor))
    assert code == 1
    assert out == ""
    assert err.startswith("error: operator leaks off the algebra: residual 1.654e+00")


def _canonical(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_cli_json_is_indent_2_sorted_with_a_newline(tmp_path, capsys):
    # the per-request commands on a random quaternion-Kahler (m = 2) and a
    # random Kahler (n = 3) tensor: files and stdout are canonical json.dumps text
    from bochner import curvature as curv
    from bochner.tensors import EuclideanSpace

    rng = np.random.default_rng(5)
    q, k = tmp_path / "q.json", tmp_path / "k.json"
    curv.save_curvature(curv.random_quaternion_kahler_curvature(
        EuclideanSpace.quaternionic_space(2), rng), q)
    curv.save_curvature(curv.random_kahler_curvature(EuclideanSpace.complex_space(3), rng), k)
    for path in (q, k):
        assert path.read_text() == _canonical(path.read_text())
    qs, ks = tmp_path / "q_spectrum.json", tmp_path / "k_spectrum.json"
    for argv, save in [
        (["spectrum", "-i", str(q), "--algebra", "sp"], qs),
        (["spectrum", "-i", str(k), "--algebra", "u"], ks),
        (["decompose", "quaternion", "-i", str(q)], None),
        (["decompose", "kahler", "-i", str(k)], None),
        (["sharp-norm", "-i", str(q)], None),
        (["sharp-norm", "-i", str(k)], None),
        (["weitz", "verify", "prop24", "-i", str(q), "--algebra", "sp", "--samples", "1"], None),
        (["weitz", "verify", "prop24", "-i", str(k), "--algebra", "u", "--samples", "1"], None),
        (["check", "quaternion", "--m", "2", "--spectrum", str(qs)], None),
        (["check", "bochner", "--n", "3", "--spectrum", str(ks)], None),
        (["check", "pq", "--n", "3", "--p", "2", "--q", "1", "--spectrum", str(ks)], None),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 2), argv
        assert out == _canonical(out), argv
        if save:
            save.write_text(out)


# ---------------------------------------------------------------------------
# one report for every check command


def _kahler_file(path, seed=5):
    import bochner

    space = bochner.EuclideanSpace.complex_space(3)
    rm = bochner.random_kahler_curvature(space, np.random.default_rng(seed))
    bochner.save_curvature(rm, str(path))
    return str(path)


@pytest.mark.parametrize("extra", [[], ["--C", "1e300"]], ids=["premise-fails", "none-admitted"])
def test_weitz_verify_lemma26_without_compared_cases_fails(tmp_path, capsys, extra):
    # a failing premise compares nothing, and a huge C rejects every tensor:
    # neither is a pass
    path = _kahler_file(tmp_path / "k.json")
    code, out, err = run_cli(capsys, "weitz", "verify", "lemma26", "-i", path, *extra)
    assert code == 1
    rep = json.loads(out)
    assert rep["cases"] == [] and rep["all_pass"] is False
    assert "no case was checked" in err


@pytest.mark.parametrize("what", ["check-prop27", "check-prop28"])
def test_forms_check_on_a_vacuous_stratum_fails(capsys, what):
    # p + q - 2k = 0 leaves every form vacuous, also where rounding leaves the
    # reduced part 3e-32 against a coefficient of 0 (the stratum at n = 3, seed 0)
    for stratum in (["--n", "2", "--p", "1", "--q", "1", "--k", "1"],
                    ["--n", "3", "--p", "2", "--q", "2", "--k", "2", "--seed", "0"]):
        code, out, err = run_cli(capsys, "forms", what, *stratum, "--samples", "3")
        assert code == 1, stratum
        assert json.loads(out)["cases"] == []
        assert "no case was checked" in err


@pytest.mark.parametrize("kind,size", [("kahler", 5), ("quaternion", 3)])
def test_sharp_norm_at_the_served_sizes_meets_its_closed_form(tmp_path, capsys, kind, size):
    # n = 5 and m = 3, the sizes of the per-request benchmark; the closed forms are
    # computed here: 4(n+1)|Rm - S|^2 - 16|tfRic|^2 and 4(m+2)|R0|^2
    rng = np.random.default_rng(32)
    if kind == "kahler":
        space = EuclideanSpace.complex_space(size)
        rm = random_kahler_curvature(space, rng)
    else:
        space = EuclideanSpace.quaternionic_space(size)
        rm = random_quaternion_kahler_curvature(space, rng)
    path = tmp_path / "rm.json"
    save_curvature(rm, str(path))
    Rm = rm.array
    ric = ricci_naive(Rm)
    scal = np.trace(ric)
    if kind == "kahler":
        S = scal / (4 * size * (size + 1)) * structure_model_naive([space.j_matrix().T])
        tfric = ric - scal / space.dim * np.eye(space.dim)
        expected = 4 * (size + 1) * np.sum((Rm - S) ** 2) - 16 * np.sum(tfric ** 2)
    else:
        hpm = structure_model_naive([A.T for A in space.quaternionic_structure])
        expected = 4 * (size + 2) * np.sum((Rm - scal / (16 * size * (size + 2)) * hpm) ** 2)
    code, out, _ = run_cli(capsys, "sharp-norm", "-i", str(path))
    assert code == 0
    assert json.loads(out)["lhs_tensor"] == pytest.approx(expected, rel=1e-10)


def test_forms_check_prop27_fails_on_a_wrong_coefficient(monkeypatch, capsys):
    from bochner import forms

    exact = forms.sharp_coefficient
    monkeypatch.setattr(forms, "sharp_coefficient", lambda *a: exact(*a) + 1)
    code, out, _ = run_cli(capsys, "forms", "check-prop27", "--n", "3", "--p", "2", "--q", "1",
                           "--samples", "2")
    assert code == 1
    cases = json.loads(out)["cases"]
    # the products stay below the raised bound; the stratum forms miss the equality
    assert all(c["pass"] == c["id"].startswith("product") for c in cases)


def _check_commands(tmp_path, capsys):
    run_cli(capsys, "model", "chsc", "--n", "2", "--c", "4", "-o", str(tmp_path / "m.json"))
    m = str(tmp_path / "m.json")
    return {
        "weitz-prop24": ["weitz", "verify", "prop24", "-i", m, "--samples", "1"],
        "weitz-lemma26": ["weitz", "verify", "lemma26", "-i", m, "--kappa", "-1", "--samples", "2"],
        "check-prop27": ["forms", "check-prop27", "--n", "2", "--p", "1", "--q", "0",
                         "--samples", "1"],
        "check-prop28": ["forms", "check-prop28", "--n", "2", "--p", "1", "--q", "0",
                         "--samples", "1"],
    }


_CHECKS = ["weitz-prop24", "weitz-lemma26", "check-prop27", "check-prop28"]


@pytest.mark.parametrize("name", _CHECKS)
def test_check_commands_print_one_report(tmp_path, capsys, name):
    argv = _check_commands(tmp_path, capsys)[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    _, reference, _ = run_cli(capsys, "verify", "prop24", "--samples", "1")
    assert set(json.loads(out)) == set(json.loads(reference)) == {
        "suite", "seed", "tolerances", "cases", "all_pass"}


# the per-suite timing pattern of the benchmark harness, copied literally
SUITE_LINE = re.compile(r"^\[([\w-]+)\] \d+ cases, \w+, ([0-9.]+)s$", re.M)


@pytest.mark.parametrize("name", _CHECKS)
def test_check_command_summaries_match_the_suite_line(tmp_path, capsys, name):
    argv = _check_commands(tmp_path, capsys)[name]
    _, _, err = run_cli(capsys, *argv)
    _, _, verify_err = run_cli(capsys, "verify", "prop24", "--samples", "1")
    suite = name.split("-")[-1]
    assert [s for s, _ in SUITE_LINE.findall(err)] == [suite]
    assert [s for s, _ in SUITE_LINE.findall(verify_err)] == ["prop24"]


def test_finish_names_the_worst_failing_case(capsys):
    # with two tolerances the largest deviation can belong to a passing case
    from bochner.cli import VerificationReport, _finish

    rep = VerificationReport("mixed", 0, {"loose": 1.0, "tight": 1e-3})
    rep.add_bound("loose-case", 0.5, 0.0, "loose")
    rep.add_bound("tight-case", 0.01, 0.0, "tight")
    assert _finish(rep, 0.0) == 1
    err = capsys.readouterr().err
    assert "[mixed] worst case: tight-case deviation 1.000e-02" in err


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser: an option given once, or an argparse error, must
    # not reach the next call, and each call prints what a fresh process prints
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bochner
    from bochner.cli import build_parser

    assert build_parser() is build_parser()
    src = str(Path(bochner.__file__).parents[1])
    m = str(tmp_path / "m.json")
    pq = ["check", "pq", "--n", "2", "--p", "1", "--q", "0", "--model", "chsc", "--c", "4"]
    calls = [["model", "chsc", "--n", "2", "--c", "4", "-o", m], pq + ["--kappa", "0.5"], pq,
             ["check", "pq", "--n", "two"], pq, ["spectrum", "-i", m, "--algebra", "u"],
             ["decompose", "kahler", "-i", m]]
    seen = []
    for argv in calls:
        try:
            code, out, err = run_cli(capsys, *argv)
        except SystemExit as exc:
            code, out, err = exc.code, *capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "bochner.cli", *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src})
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        seen.append((code, out))
    assert seen[3][0] == 2
    assert json.loads(seen[1][1])["arithmetic"]["kappa"] == "0.5"
    assert json.loads(seen[2][1])["arithmetic"]["kappa"] == "0.0"
    assert seen[2] == seen[4]


def test_verify_tol_replaces_only_the_first_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "bochner-tracefree", "--samples", "1", "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["tolerances"] == {"reassembly": 1e-9, "trace": 1e-6}


def test_weitz_verify_lemma26_keeps_its_own_default_slack(tmp_path, capsys):
    m = str(tmp_path / "m.json")
    run_cli(capsys, "model", "chsc", "--n", "2", "--c", "4", "-o", m)
    _, out, _ = run_cli(capsys, "weitz", "verify", "lemma26", "-i", m, "--kappa", "-1",
                        "--samples", "1")
    assert json.loads(out)["tolerances"] == {"bound": 1e-8}
    _, out, _ = run_cli(capsys, "verify", "lemma26", "--samples", "1")
    assert json.loads(out)["tolerances"] == {"bound": 1e-10}


def test_readme_suite_table_is_the_registry():
    from pathlib import Path

    from bochner.cli import _SUITES

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` \| (\d+) \| (.+?) \| `(\w+)` \|$", text, re.M)
    table = {}
    for name, samples, tolerances, replaced in rows:
        tols = {key: float(value) for key, value in re.findall(r"`(\w+)` ([\d.e+-]+)", tolerances)}
        table[name] = (int(samples), tols, replaced)
    assert table == {name: (samples, tols, next(iter(tols)))
                     for name, (_, samples, tols) in _SUITES.items()}
