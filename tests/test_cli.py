import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conjlim import cli, suites
from conjlim.goodpath import construct_good_path
from conjlim.numkit import matrix_from_json, matrix_to_json, save_matrix


@pytest.fixture
def matrices(tmp_path):
    z = np.diag([1.0, 0.0, 0.0]).astype(complex)
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 1.0
    zp = tmp_path / "z.json"
    ap = tmp_path / "a.json"
    save_matrix(zp, z)
    save_matrix(ap, a)
    return zp, ap


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = "import sys, conjlim.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_runs_with_scipy_hidden():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = """
import sys

class HideScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is hidden")

sys.meta_path.insert(0, HideScipy())
import numpy as np
import conjlim, conjlim.cli
from conjlim.modifier import conjugation_family_bound
from conjlim.suites import run_suite

print(conjugation_family_bound([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])]).ok)
print(run_suite("appendix-a", 7).passed)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def run(args):
    return cli.main([str(a) for a in args])


class TestCriteriaCommand:
    def test_sker_verdict(self, matrices, capsys):
        zp, ap = matrices
        assert run(["criteria", "--op", "sker", "--Z", zp, "--A", ap]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["member"] is False
        assert "witness" in out

    def test_sim_witness_is_a_cokernel_vector(self, tmp_path, capsys):
        # the image test is the kernel test on adjoints: its witness is a y in
        # ker Z^H with y^H A Z != 0, here e_1, along which A moves e_0 off im Z
        z = np.diag([1.0, 0.0, 0.0]).astype(complex)
        a = np.zeros((3, 3), dtype=complex)
        a[1, 0] = 1.0
        zp, ap = tmp_path / "z.json", tmp_path / "a.json"
        save_matrix(zp, z)
        save_matrix(ap, a)
        assert run(["criteria", "--op", "sim", "--Z", zp, "--A", ap]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["member"] is False
        y = matrix_from_json(out["witness"]).reshape(-1)
        assert np.allclose(np.abs(y), [0.0, 1.0, 0.0], atol=1e-12)
        assert np.linalg.norm(z.conj().T @ y) < 1e-12
        assert np.linalg.norm(y.conj() @ a @ z) == pytest.approx(1.0)

    def test_dim(self, capsys):
        assert run(["criteria", "--op", "dim", "--n", 3, "--m", 1]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 7

    def test_basis(self, matrices, capsys):
        zp, _ = matrices
        assert run(["criteria", "--op", "basis", "--Z", zp]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 7

    def test_missing_argument_is_usage_error(self, matrices, capsys):
        zp, _ = matrices
        assert run(["criteria", "--op", "sker", "--Z", zp]) == 2
        assert "requires --A" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, matrices, tmp_path, capsys):
        _, ap = matrices
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2, "cols": 2, "data": [[1, 0],')
        assert run(["criteria", "--op", "sker", "--Z", bad, "--A", ap]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: JSON parse error at line 1, column ")


class TestGoodpathCommand:
    def test_construct_and_reload(self, matrices, tmp_path, capsys):
        zp, _ = matrices
        out = tmp_path / "gp.json"
        assert run(["goodpath", "--Z", zp, "--order", 4, "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["order"] == 4
        assert obj["has_pole"] is True


class TestModifierCommand:
    def test_member_requires_seed(self, matrices, capsys):
        zp, ap = matrices
        assert run(["modifier", "--op", "member", "--Z", zp, "--A", ap]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_member_with_delete_diagonal(self, matrices, capsys):
        zp, ap = matrices
        code = run(
            ["modifier", "--op", "member", "--phi", "J", "--Z", zp, "--A", ap, "--seed", 42]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["member"] is False
        # V_r^H A K, with V_r = e_0 and K spanning ker Z = span(e_1, e_2), is
        # E_01 restricted there: norm 1
        assert out["residual"] == pytest.approx(1.0)
        assert out["residual"] > out["threshold"]

    def test_member_margin_on_kernel_member(self, matrices, tmp_path, capsys):
        zp, _ = matrices
        a = np.zeros((3, 3), dtype=complex)
        a[1, 0] = 1.0  # sends e_0 into ker Z and kills ker Z
        ap = tmp_path / "member.json"
        save_matrix(ap, a)
        code = run(
            ["modifier", "--op", "member", "--phi", "J", "--Z", zp, "--A", ap, "--seed", 42]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["member"] is True
        assert 0.0 < out["threshold"]
        assert out["residual"] <= out["threshold"]

    def test_faithful_hadamard_file(self, tmp_path, capsys):
        h = np.ones((3, 3), dtype=complex)
        h[0, 1] = 0.0
        hp = tmp_path / "h.json"
        save_matrix(hp, h)
        code = run(["modifier", "--op", "faithful", "--phi", f"hadamard:{hp}", "--seed", 1])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["faithful"] is False and out["exact"] is True

    def test_jbound(self, matrices, capsys):
        _, ap = matrices
        assert run(["modifier", "--op", "jbound", "--A", ap]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["diag_sum"] <= out["bound"] + 1e-12

    def test_gershgorin(self, matrices, capsys):
        zp, _ = matrices
        assert run(["modifier", "--op", "gershgorin", "--A", zp]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["radii"] == [0.0, 0.0, 0.0]


class TestSimulateCommand:
    def test_linear_path(self, tmp_path, capsys):
        spec = {
            "base": matrix_to_json(np.diag([1.0, 0.0])),
            "coeffs": [matrix_to_json(np.diag([0.0, 1.0]))],
        }
        spec_path = tmp_path / "path.json"
        spec_path.write_text(json.dumps(spec))
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        ap = tmp_path / "a.json"
        save_matrix(ap, a)
        code = run(
            [
                "simulate",
                "--path",
                f"linear:{spec_path}",
                "--A",
                ap,
                "--phi",
                "J",
                "--grid",
                "1e-6:1e-1:26",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "divergent"
        assert len(report["t_values"]) == len(report["norms"]) == 26


class TestSimulatePathKinds:
    def test_goodpath_spec_file(self, matrices, tmp_path, capsys):
        zp, ap = matrices
        gp_path = tmp_path / "gp.json"
        assert run(["goodpath", "--Z", zp, "--order", 3, "--out", gp_path]) == 0
        assert run(["simulate", "--path", f"goodpath:{gp_path}", "--A", ap]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "divergent"

    def test_poly_spec_file(self, tmp_path, capsys):
        spec = {
            "base": matrix_to_json(np.diag([1.0, 0.0])),
            "coeffs": [matrix_to_json(np.zeros((2, 2))), matrix_to_json(np.diag([0.0, 1.0]))],
        }
        spec_path = tmp_path / "poly.json"
        spec_path.write_text(json.dumps(spec))
        ap = tmp_path / "a.json"
        save_matrix(ap, np.eye(2))
        assert run(["simulate", "--path", f"poly:{spec_path}", "--A", ap]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "bounded"

    def test_samples_spec_file(self, tmp_path, capsys):
        samples = {
            "samples": [
                {"t": t, "matrix": matrix_to_json(np.diag([1.0, t]))}
                for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
            ]
        }
        spec_path = tmp_path / "samples.json"
        spec_path.write_text(json.dumps(samples))
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        ap = tmp_path / "a.json"
        save_matrix(ap, a)
        assert run(["simulate", "--path", f"samples:{spec_path}", "--A", ap]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "divergent"
        assert len(report["t_values"]) == 6

    def test_unknown_path_kind(self, matrices, capsys):
        _, ap = matrices
        assert run(["simulate", "--path", f"spiral:{ap}", "--A", ap]) == 2
        assert "unknown path kind" in capsys.readouterr().err


LINEAR = {
    "base": matrix_to_json(np.diag([1.0, 0.0])),
    "coeffs": [matrix_to_json(np.diag([0.0, 1.0]))],
}
GOOD = construct_good_path(np.diag([1.0, 0.0]), order=2).to_json()


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


class TestMalformedSpecs:
    """A malformed path or grid spec is an input error: exit 2 and one
    ``error:`` line naming the bad field, with no traceback or warning."""

    @pytest.mark.parametrize(
        "kind, spec, grid, named",
        [
            ("linear", without(LINEAR, "coeffs"), None, "'coeffs'"),
            ("linear", without(LINEAR, "base"), None, "'base'"),
            ("linear", [LINEAR], None, "must be an object, got list"),
            ("poly", {**LINEAR, "coeffs": 3}, None, "'coeffs'"),
            ("goodpath", without(GOOD, "path_coeffs"), None, "'path_coeffs'"),
            ("goodpath", [GOOD], None, "must be an object, got list"),
            ("goodpath", {**GOOD, "order": "x"}, None, "'order'"),
            ("goodpath", {**GOOD, "inverse_pole": [1]}, None, "'inverse_pole'"),
            ("samples", {"samples": [{"matrix": LINEAR["base"]}]}, None, "'t'"),
            ("samples", {"samples": 3}, None, "'samples'"),
            ("linear", LINEAR, "x:1:3", "'tmin'"),
            ("linear", LINEAR, "1e-6:y:3", "'tmax'"),
            ("linear", LINEAR, "1e-6:1e-1:2.5", "'count'"),
            ("linear", LINEAR, "1e-6:inf:26", "t_max < inf"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_reported_as_input_error(self, kind, spec, grid, named, tmp_path, capsys):
        spec_path = tmp_path / "path.json"
        spec_path.write_text(json.dumps(spec))
        ap = tmp_path / "a.json"
        save_matrix(ap, np.eye(2))
        args = ["simulate", "--path", f"{kind}:{spec_path}", "--A", ap]
        assert run(args + (["--grid", grid] if grid else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err


class TestSuiteCommand:
    def test_dim_formula_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["suite", "--id", "dim-formula", "--seed", 1, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert all(case["claim"] for case in report["cases"])
        assert "suite dim-formula: pass" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        assert run(["suite", "--id", "unknown", "--seed", 1]) == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite_id, config, named",
        [
            ("dim-formula", "3", "must be a JSON object, got int"),
            ("goodpath-residual", '{"instances": "x"}', "'instances'"),
            ("dichotomy", '{"instances": 0}', "'instances'"),
            ("rigidity", '{"instances": -3}', "'instances'"),
            ("example-3x3", '{"companions": 2.5}', "'companions'"),
            ("appendix-a", '{"instances": true}', "'instances'"),
        ],
    )
    def test_bad_config_is_input_error(self, suite_id, config, named, capsys):
        assert run(["suite", "--id", suite_id, "--seed", 1, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_deterministic_reports(self):
        r1 = suites.run_suite("dim-formula", seed=7)
        r2 = suites.run_suite("dim-formula", seed=7)
        a, b = r1.to_json(), r2.to_json()
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_failing_suite_exit_code_encodes_the_suite(self, monkeypatch, capsys):
        def forced_failure(seed, config):
            return [suites.SuiteCase("forced", False, 0.0, "synthetic failure")]

        monkeypatch.setitem(suites._SUITES, "rigidity", forced_failure)
        code = run(["suite", "--id", "rigidity", "--seed", 1])
        assert code == 10 + suites.SUITE_IDS.index("rigidity")
        assert "FAIL" in capsys.readouterr().err

