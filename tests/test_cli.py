import json
import math

import pytest

from adinkra_spectra.cli import PipelineConfig, run
from adinkra_spectra.transfer import build_transfer_matrix, fredholm_det, gauss_branch_system


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_adinkra_build_a41(capsys):
    code, out, _err = run_capture(capsys, ["adinkra", "build", "--n", "4", "--code", "1111"])
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert payload["validation"]["ok"]
    assert len(payload["graph"]["vertices"]) == 8
    assert len(payload["graph"]["edges"]) == 16


def test_action_laplace_empty_spectrum(capsys):
    code, out, _err = run_capture(
        capsys, ["action", "laplace", "--genus", "2", "--lam", "10", "--test", "bump"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["geodesic_term"] == 0.0
    assert payload["contributing_class_count"] == 0


def test_pipeline_n5(capsys):
    code, out, _err = run_capture(capsys, ["pipeline", "--n", "5", "--code", "trivial"])
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 5
    assert payload["triangulation"]["total_area_over_pi"] == "16"
    assert "rejected" in payload["dual"]
    assert "odd" in payload["dual"]["rejected"]


def test_pipeline_n4_has_dual(capsys):
    code, out, _err = run_capture(capsys, ["pipeline", "--n", "4", "--code", "1111"])
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert payload["dual"]["valid"]
    assert payload["dual"]["genus"] == 1


def test_determinism(capsys):
    argv = ["pipeline", "--n", "4", "--code", "1111"]
    _c, out1, _e = run_capture(capsys, argv)
    _c, out2, _e = run_capture(capsys, argv)
    assert out1 == out2


def test_graph_json_round_trip(capsys, tmp_path):
    from adinkra_spectra.adinkra import graph_from_json, graph_to_json

    _c, out, _e = run_capture(capsys, ["adinkra", "build", "--n", "4", "--code", "1111"])
    obj = json.loads(out)["graph"]
    graph, dashing = graph_from_json(obj)
    assert graph_to_json(graph, dashing) == obj


def test_code_report_with_cosets(capsys):
    code, out, _err = run_capture(capsys, ["code", "--n", "4", "--code", "1111", "--cosets"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["is_doubly_even"]
    assert len(payload["cosets"]) == 8


def test_validation_error_exit_code(capsys):
    code, _out, err = run_capture(capsys, ["adinkra", "build", "--n", "4", "--code", "111"])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]
    assert "message" in payload


def test_resource_bound_exit_code(capsys):
    code, _out, err = run_capture(
        capsys, ["geodesics", "--p", "5", "--q", "5", "--r", "2", "--lmax", "12"]
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "resource-bound"


def test_origami_embeddings_count(capsys):
    code, out, _err = run_capture(
        capsys, ["origami", "--embeddings", "--n", "4", "--code", "1111"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["embedding_count"] == str(1 << 16)


@pytest.mark.parametrize("argv,unknown", [
    pytest.param(["--seed", "7", "origami", "--embeddings", "--n", "4", "--code", "1111"],
                 "--seed", id="argv0"),
    pytest.param(["origami", "--embeddings", "--n", "4", "--code", "1111", "--mode", "sample"],
                 "--mode sample", id="argv1"),
    pytest.param(["origami", "--embeddings", "--n", "4", "--code", "1111", "--samples", "3"],
                 "--samples 3", id="argv2"),
    pytest.param(["--tolerance", "1e-9", "--seed", "7", "origami", "--embeddings", "--n", "4"],
                 "--seed", id="argv3"),
])
def test_retired_sampling_flags_are_usage_errors(capsys, argv, unknown):
    # a global flag's value is not read as the subcommand
    code, out, err = run_capture(capsys, argv)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "usage", "message": f"unrecognized arguments: {unknown}"}


def test_unknown_subcommand_is_named(capsys):
    code, out, err = run_capture(capsys, ["nosuch", "--n", "3"])
    assert code == 1 and out == ""
    assert json.loads(err)["message"].startswith("argument subcommand: invalid choice: 'nosuch'")


def test_origami_monodromy_json(capsys, tmp_path):
    mono = {"d": 3, "sigma_x": [2, 1, 3], "sigma_y": [3, 2, 1]}
    path = tmp_path / "l_shape.json"
    path.write_text(json.dumps(mono))
    code, out, _err = run_capture(capsys, ["origami", "--json", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["ok"]
    assert payload["genus"] == 2


def test_origami_with_no_squares_gets_no_genus(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"d": 0, "sigma_x": [], "sigma_y": []}))
    code, out, _err = run_capture(capsys, ["origami", "--json", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"] == {"ok": False, "connected": True, "issues": ["no squares"]}
    assert "genus" not in payload


def test_product_fibered(capsys):
    code, out, _err = run_capture(
        capsys,
        ["product", "fibered", "--n1", "2", "--code1", "trivial", "--n2", "2", "--code2", "trivial"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["ok"]
    assert payload["genus_report"]["g_product"] == 0


def test_product_fibered_refuses_an_edge_inside_one_class(capsys):
    # the odd code 1000 gives the second factor a loop
    code, out, err = run_capture(
        capsys, ["product", "fibered", "--n1", "2", "--n2", "4", "--code2", "1000", "--residue", "1"])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "edge (0,0) of color 1 in factor 2 lies inside one parity class, "
                   "so the vertex pair (1, 0) is not parity-matched",
    }


def test_product_cartesian(capsys):
    code, out, _err = run_capture(
        capsys,
        ["product", "cartesian", "--n1", "1", "--code1", "trivial", "--n2", "1", "--code2", "trivial"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["ok"]
    assert len(payload["graph"]["vertices"]) == 4


def test_geodesics_csv(capsys, tmp_path):
    out_path = tmp_path / "spec.csv"
    code, out, _err = run_capture(
        capsys,
        ["--out", str(out_path), "geodesics", "--p", "5", "--q", "5", "--r", "2", "--lmax", "2.0"],
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["converged"]
    text = out_path.read_text()
    assert text.startswith("# l_max=2.0,certified_below=2.0,converged=true\n"
                           "length,trace,multiplicity,word,primitive_flag\n")
    assert len(text.strip().splitlines()) == 2 + meta["classes"]


def test_geodesics_meta_on_stderr_without_out(capsys, tmp_path):
    argv = ["geodesics", "--p", "5", "--q", "5", "--r", "2", "--lmax", "2.0"]
    out_path = tmp_path / "spec.csv"
    _code, meta_text, _err = run_capture(capsys, ["--out", str(out_path), *argv])
    code, out, err = run_capture(capsys, argv)
    assert code == 0
    assert out == out_path.read_text()
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == json.loads(meta_text)


def test_action_from_spectrum_csv(capsys, tmp_path):
    out_path = tmp_path / "spec.csv"
    run_capture(
        capsys,
        ["--out", str(out_path), "geodesics", "--p", "5", "--q", "5", "--r", "2", "--lmax", "2.0"],
    )
    code, out, _err = run_capture(
        capsys,
        ["action", "laplace", "--genus", "2", "--spectrum", str(out_path),
         "--lam", "0.6", "--test", "coswin"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["contributing_class_count"] >= 1  # the systole fits under 1/0.6
    assert payload["total"] == payload["identity_term"] + payload["geodesic_term"]


@pytest.mark.parametrize("flavor", ["laplace", "dirac", "super"])
def test_action_refuses_lambda_beyond_csv_certificate(capsys, tmp_path, flavor):
    path = tmp_path / "spec.csv"
    run_capture(capsys, ["--out", str(path), "geodesics", "--p", "5", "--q", "5", "--r", "2",
                         "--lmax", "2.0"])
    argv = ["action", flavor, "--genus", "2", "--spectrum", str(path), "--lam"]
    code, out, err = run_capture(capsys, argv + ["0.2"])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "the action needs every geodesic up to length 1/Lambda = 5, "
                   "but the spectrum is certified only below 2",
    }
    code, out, _err = run_capture(capsys, argv + ["0.5"])  # 1/Lambda = l_max
    assert code == 0 and json.loads(out)["contributing_class_count"] >= 1
    # a CSV without the certificate line is read as before
    path.write_text(path.read_text().split("\n", 1)[1])
    code, out, _err = run_capture(capsys, argv + ["0.2"])
    assert code == 0 and math.isfinite(json.loads(out)["total"])


@pytest.mark.parametrize("argv,message", [
    (["geodesics", "--p", "5", "--q", "5", "--r", "2", "--lmax", "nan"],
     "l_max must be positive and finite, got nan"),
    (["geodesics", "--p", "5", "--q", "5", "--r", "2", "--lmax", "inf"],
     "l_max must be positive and finite, got inf"),
    (["action", "laplace", "--genus", "2", "--lam", "inf"],
     "Lambda must be positive and finite, got inf"),
    (["action", "dirac", "--genus", "2", "--lam", "nan"],
     "Lambda must be positive and finite, got nan"),
    (["action", "super", "--genus", "2", "--lam", "nan"],
     "Lambda must be positive and finite, got nan"),
    (["--tolerance", "inf", "geodesics", "--p", "5", "--q", "5", "--r", "2", "--lmax", "4.0"],
     "tolerance must be positive and finite, got inf"),
    (["--tolerance", "nan", "geodesics", "--p", "5", "--q", "5", "--r", "2", "--lmax", "4.0"],
     "tolerance must be positive and finite, got nan"),
    (["action", "laplace", "--genus", "2", "--lam", "1e200"],
     "the action overflows at Lambda = 1e+200: identity term inf, total inf"),
])
def test_non_finite_parameters_are_refused(capsys, argv, message):
    code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_super_action_warns_nothing(capsys):
    # tanh(Lambda pi r) overflows its argument to inf, whose tanh is the limit 1;
    # stderr is the JSON error alone
    code, out, err = run_capture(capsys, ["action", "super", "--genus", "2", "--lam", "1e307"])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "the action overflows at Lambda = 1e+307: identity term inf, total inf",
    }


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_pipeline_config_refuses_bad_tolerance(tol):
    with pytest.raises(ValueError, match=f"tolerance must be positive and finite, got {tol}"):
        PipelineConfig("geodesics", tolerance=tol)


@pytest.mark.parametrize("args,message", [
    (["--lam", "nan"], "Lambda must be positive and finite, got nan"),
    (["--lam", "inf"], "Lambda must be positive and finite, got inf"),
    (["--width", "inf"], "width must be positive and finite, got inf"),
    (["--width", "nan"], "width must be positive and finite, got nan"),
])
def test_torus_action_refuses_non_finite_reals(capsys, tmp_path, args, message):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"g": 1, "omega": [[[0.2, 1.1]]], "n": [0], "m": [1]}))
    code, out, err = run_capture(capsys, ["torus", "action", "--omega", str(path), *args])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("row,message", [
    ("1.0,2.2,-3,ab,1", "class 'ab' has multiplicity -3; need >= 1"),
    ("1.0,2.2,3,ab", "CSV row 1 has 4 fields, expected 5: '1.0,2.2,3,ab'"),
    ("nan,nan,1,ab,1", "CSV row 1 (ab) has length nan and trace nan; "
                       "need a finite trace and a positive, finite length"),
])
def test_action_refuses_bad_spectrum_row(capsys, tmp_path, row, message):
    path = tmp_path / "spec.csv"
    path.write_text(f"length,trace,multiplicity,word,primitive_flag\n{row}\n")
    code, out, err = run_capture(
        capsys, ["action", "laplace", "--genus", "2", "--spectrum", str(path), "--lam", "0.5"])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_zeta_gauss(capsys):
    code, out, _err = run_capture(capsys, ["zeta", "--beta", "2.0", "--gauss", "12", "--nodes", "16"])
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix_size"] == 12 * 16
    assert not payload["singular"]
    assert payload["spectral_radius"] < 1.0


def test_zeta_complex_beta(capsys):
    code, out, _err = run_capture(capsys, ["zeta", "--beta", "1.5+0.7j", "--gauss", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == [1.5, 0.7]
    res = fredholm_det(build_transfer_matrix(gauss_branch_system(5), 1.5 + 0.7j, 32))
    assert payload["det"] == [res.value.real, res.value.imag]


@pytest.mark.parametrize("beta", ["nan", "1e400", "inf+1j", "1+2"])
def test_zeta_bad_beta_is_usage_error(capsys, beta):
    code, out, err = run_capture(capsys, ["zeta", "--beta", beta, "--gauss", "5"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_zeta_with_coset_file(capsys, tmp_path):
    action = {"degree": 2, "perms": {str(n): [2, 1] if n == 1 else [1, 2] for n in range(1, 7)}}
    path = tmp_path / "action.json"
    path.write_text(json.dumps(action))
    code, out, _err = run_capture(
        capsys, ["zeta", "--beta", "1.0", "--gauss", "6", "--nodes", "8", "--coset", str(path)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix_size"] == 2 * 6 * 8


def test_zeta_coset_file_with_unknown_label(capsys, tmp_path):
    action = {"degree": 2, "perms": {"1": [2, 1], "2": [1, 2], "3": [2, 1], "7": [1, 2]}}
    path = tmp_path / "action.json"
    path.write_text(json.dumps(action))
    code, out, err = run_capture(capsys, ["zeta", "--beta", "1.0", "--gauss", "3", "--coset", str(path)])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"] == "coset permutations for labels the system lacks: ['7']"


def test_zeta_coset_file_of_degree_zero_is_refused(capsys, tmp_path):
    path = tmp_path / "c0.json"
    path.write_text(json.dumps({"perms": {"1": [], "2": []}}))
    code, out, err = run_capture(
        capsys, ["zeta", "--gauss", "2", "--beta", "1.5", "--nodes", "4", "--coset", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "perm for branch '1' has degree 0: a permutation needs at least one point"}


@pytest.mark.parametrize("subcommand,obj,message", [
    ("zeta", {"perms": {"1": [2.9, 1.2], "2": [1, 2]}},
     "perm for branch '1' has the entry 2.9, which is not an integer"),
    ("zeta", {"perms": {"1": ["2", "1"], "2": [1, 2]}},
     "perm for branch '1' has the entry '2', which is not an integer"),
    ("zeta", {"perms": {"1": 3, "2": 4}},
     "perm for branch '1' must be a list of 1-based integers, got 3"),
    ("zeta", {"perms": [[2, 1]]}, "perms must be an object of 1-based image lists, got list"),
    ("origami", {"d": 2, "sigma_x": [2.5, 1.9], "sigma_y": [1, 2]},
     "sigma_x has the entry 2.5, which is not an integer"),
    ("origami", {"d": 1, "sigma_x": 5, "sigma_y": [1]},
     "sigma_x must be a list of 1-based integers, got 5"),
    ("origami", {"d": 3.9, "sigma_x": [2, 1, 3], "sigma_y": [3, 2, 1]},
     "d must be an integer, got 3.9"),
    ("origami", {"d": "3", "sigma_x": [2, 1, 3], "sigma_y": [3, 2, 1]},
     "d must be an integer, got '3'"),
])
def test_malformed_permutation_files_are_refused(capsys, tmp_path, subcommand, obj, message):
    # entries are neither truncated nor parsed, and a wrong shape is a
    # JSON error object, not a traceback
    path = tmp_path / "perms.json"
    path.write_text(json.dumps(obj))
    argv = (["zeta", "--gauss", "2", "--beta", "1.5", "--nodes", "4", "--coset", str(path)]
            if subcommand == "zeta" else ["origami", "--json", str(path)])
    code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_torus_action(capsys, tmp_path):
    pd = {"g": 1, "omega": [[[0.0, 1.0]]], "n": [0], "m": [1]}
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(pd))
    spec_path = tmp_path / "spectrum.csv"
    code, out, _err = run_capture(
        capsys,
        ["torus", "action", "--omega", str(path), "--box", "20",
         "--spectrum-out", str(spec_path)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["poisson"]["discrepancy"] < 1e-8
    assert spec_path.read_text().startswith("n,m,lambda,rho")


@pytest.mark.parametrize("n,m,message", [
    ([1.7], [0.2], "n[0] must be an integer, got 1.7"),
    ([0], ["1"], "m[0] must be an integer, got '1'"),
    ([True], [0], "n[0] must be an integer, got True"),
    (5, [1], "n must be a list of integers, got 5"),
])
def test_torus_period_data_counts_are_read_strictly(capsys, tmp_path, n, m, message):
    # (1.7, 0.2) used to be read as (1, 0) and given an action, and a
    # scalar escaped as a TypeError traceback
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"g": 1, "omega": [[[0.2, 1.1]]], "n": n, "m": m}))
    code, out, err = run_capture(capsys, ["torus", "action", "--omega", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("omega,message", [
    ([[["0.2", 1.1]]], "omega[0][0][0] must be a finite number, got '0.2'"),
    ([[[True, 1.1]]], "omega[0][0][0] must be a finite number, got True"),
    ([[[0.2, False]]], "omega[0][0][1] must be a finite number, got False"),
    ([[[0.2, float("nan")]]], "omega[0][0][1] must be a finite number, got nan"),
    ([[[float("inf"), 1.1]]], "omega[0][0][0] must be a finite number, got inf"),
    ([[[0.2, 10 ** 400]]], "omega[0][0][1] must be a finite number, got 100000000000000000...0000000000000000000"),
    ([[0.2]], "omega[0][0] must be a [re, im] pair, got 0.2"),
    ([[[0.2, 1.1, 0.0]]], "omega[0][0] must be a [re, im] pair, got [0.2, 1.1, 0.0]"),
])
def test_torus_period_matrix_is_read_strictly(capsys, tmp_path, omega, message):
    # a string entry escaped as a TypeError traceback, and true was read as 1
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"g": 1, "omega": omega, "n": [1], "m": [0]}))
    code, out, err = run_capture(capsys, ["torus", "action", "--omega", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_torus_period_matrix_takes_integer_entries(capsys, tmp_path):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"g": 1, "omega": [[[0, 1]]], "n": [0], "m": [1]}))
    code, out, _err = run_capture(capsys, ["torus", "action", "--omega", str(path), "--box", "5"])
    assert code == 0 and "action" in json.loads(out)


def test_surface_emit_dual(capsys, tmp_path):
    dual_path = tmp_path / "dual.json"
    code, out, _err = run_capture(
        capsys, ["surface", "--n", "4", "--code", "1111", "--emit-dual", str(dual_path)]
    )
    assert code == 0
    dual = json.loads(dual_path.read_text())
    assert dual["genus"] == 1
    assert dual["monodromy"]["d"] == 8
    # each edge [u, v, label] is the label's 1-based image of u
    mono = dual["monodromy"]
    assert sorted(dual["edges"]) == sorted(
        [u, mono[f"sigma_{label}"][u] - 1, label] for label in "xy" for u in range(8))
    # and the monodromy reads back through origami --json with the same genus
    mono_path = tmp_path / "mono.json"
    mono_path.write_text(json.dumps(mono))
    code, out, _err = run_capture(capsys, ["origami", "--json", str(mono_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["ok"] and payload["genus"] == dual["genus"]
    assert payload["monodromy"] == mono


def test_version(capsys):
    code, out, _err = run_capture(capsys, ["--version"])
    assert code == 0


def test_unknown_subcommand(capsys):
    code, _out, _err = run_capture(capsys, ["frobnicate"])
    assert code == 1


def _system_json():
    return gauss_branch_system(2).to_json()


def _set(obj, path, value):
    *parents, key = path
    for part in parents:
        obj = obj[part]
    obj[key] = value


@pytest.mark.parametrize("path,value,message", [
    (("intervals", 0, 0), "0.5", "intervals[0][0] must be a finite number, got '0.5'"),
    (("intervals", 1, 1), True, "intervals[1][1] must be a finite number, got True"),
    (("maps", 0, 1, 0), "1", "maps[0][1][0] must be a finite number, got '1'"),
    (("maps", 1, 1, 1), float("nan"), "maps[1][1][1] must be a finite number, got nan"),
    (("maps", 1, 0), [0.0, 1.0, 2.0], "maps[1][0] must be a list of 2, got [0.0, 1.0, 2.0]"),
    (("intervals", 0), [0.5], "intervals[0] must be a list of 2, got [0.5]"),
    (("maps",), [[[0.0, 1.0], [1.0, 1.0]]], "maps must be a list of 2, got [[[0.0, 1.0], [1.0, 1.0]]]"),
    (("labels",), ["1"], "labels must be a list of 2, got ['1']"),
    (("intervals",), 5, "intervals must be a list of [lo, hi] pairs, got 5"),
])
def test_zeta_branch_system_is_read_strictly(capsys, tmp_path, path, value, message):
    # a string or bool end was read by float() into the same det, and a
    # short list of maps or labels dropped a branch through zip
    obj = _system_json()
    _set(obj, path, value)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_capture(capsys, ["zeta", "--system", str(path), "--beta", "1.0", "--nodes", "8"])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_zeta_empty_branch_system_is_refused(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"intervals": [], "maps": []}))
    code, out, err = run_capture(capsys, ["zeta", "--system", str(path), "--beta", "1.0", "--nodes", "8"])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError",
                               "message": "a branch system needs at least one branch"}


def test_zeta_branch_system_file_gives_the_gauss_det(capsys, tmp_path):
    obj = _system_json()
    obj["maps"][0] = [[0, 1], [1, 1]]  # integer entries are numbers too
    path = tmp_path / "system.json"
    path.write_text(json.dumps(obj))
    args = ["--beta", "1.0", "--nodes", "8"]
    code, out, _err = run_capture(capsys, ["zeta", "--system", str(path), *args])
    assert code == 0
    assert json.loads(out) == json.loads(run_capture(capsys, ["zeta", "--gauss", "2", *args])[1])
    del obj["labels"]
    path.write_text(json.dumps(obj))
    assert run_capture(capsys, ["zeta", "--system", str(path), *args])[1] == out


@pytest.mark.parametrize("chi,message", [
    ({"ab": ["1.0", 0.0]}, "chi['ab'][0] must be a finite number, got '1.0'"),
    ({"ab": [1.0]}, "chi['ab'] must be a [re, im] pair, got [1.0]"),
    ({"ab": [True, 0.0]}, "chi['ab'][0] must be a finite number, got True"),
    ({"ab": [0.0, float("inf")]}, "chi['ab'][1] must be a finite number, got inf"),
    ([[1.0, 0.0]], "chi must be an object of [re, im] pairs by class word"),
])
def test_action_chi_is_read_strictly(capsys, tmp_path, chi, message):
    # a string escaped as a TypeError traceback, a short pair as an
    # IndexError traceback, and true was read as 1
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(chi))
    code, out, err = run_capture(capsys, ["action", "dirac", "--genus", "2", "--lam", "1.0",
                                          "--chi", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_action_chi_takes_integer_entries(capsys, tmp_path):
    spectrum = tmp_path / "spec.csv"
    run_capture(capsys, ["--out", str(spectrum), "geodesics", "--p", "5", "--q", "5", "--r", "2",
                         "--lmax", "2.0"])
    words = [line.split(",")[3] for line in spectrum.read_text().splitlines()
             if line[:1].isdigit()]
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({word: [1, 0] for word in words}))
    args = ["action", "dirac", "--genus", "2", "--spectrum", str(spectrum), "--lam", "0.6"]
    code, out, _err = run_capture(capsys, [*args, "--chi", str(path)])
    assert code == 0 and json.loads(out)["contributing_class_count"] >= 1
    assert out == run_capture(capsys, args)[1]  # chi = 1 is the default


@pytest.mark.parametrize("flavor", ["dirac", "super"])
def test_action_chi_missing_a_class_is_refused_by_name(capsys, tmp_path, flavor):
    # a class with no chi value escaped as a bare KeyError
    spectrum = tmp_path / "spec.csv"
    run_capture(capsys, ["--out", str(spectrum), "geodesics", "--p", "5", "--q", "5", "--r", "2",
                         "--lmax", "3.0"])
    words = [line.split(",")[3] for line in spectrum.read_text().splitlines()
             if line[:1].isdigit()]
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({word: [1, 0] for word in words if word != words[1]}))
    code, out, err = run_capture(capsys, ["action", flavor, "--genus", "2", "--spectrum",
                                          str(spectrum), "--lam", "0.6", "--chi", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"chi has no value for class {words[1]!r}"}
