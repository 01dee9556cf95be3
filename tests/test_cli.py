import hashlib
import json
from fractions import Fraction

import pytest

from pathgeom import MultiVector, OMEGA0, PHI0, canonical_model, heisenberg_model
from pathgeom.cli import main, render_json


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def pair_payload(omega, phi):
    return {"omega": omega.to_json(), "phi": phi.to_json()}


class TestRenderJson:
    def test_floats_use_17_significant_digits(self):
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(1.0) == "1"

    def test_fractions_are_strings(self):
        assert render_json(Fraction(-7, 3)) == '"-7/3"'

    def test_nested_structures(self):
        out = render_json({"a": [True, None, 2]})
        assert json.loads(out) == {"a": [True, None, 2]}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_refused(self, value):
        with pytest.raises(ValueError):
            render_json({"a": [1.0, value]})


class TestPairCommand:
    def test_model_pair(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0, PHI0))
        code, out, _ = run(["pair", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["elliptic"] is True
        assert report["kappa"] == pytest.approx(1.0)
        assert report["pairings"] == {"ww": "2/1", "wp": "0/1", "pp": "2/1"}
        assert report["reconstruction_residual"] <= 1e-9

    def test_non_elliptic_pair_skips_normal_form(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0, OMEGA0))
        code, out, _ = run(["pair", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["elliptic"] is False
        assert report["normal_form"] is None and report["kappa"] is None

    def test_null_pair(self, tmp_path, capsys):
        e12 = MultiVector.basis(4, (1, 2))
        e34 = MultiVector.basis(4, (3, 4))
        path = write_json(tmp_path, "in.json", pair_payload(e12, e34))
        code, out, _ = run(["pair", "--input", path], capsys)
        assert code == 0 and json.loads(out)["elliptic"] is False

    def test_malformed_input(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", {"omega": {"dim": 4}})
        code, _, err = run(["pair", "--input", path], capsys)
        assert code == 1 and "malformed" in err

    def test_epsilon_override_scales_pairings(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0, PHI0))
        eps = json.dumps(MultiVector(4, 4, {(1, 2, 3, 4): Fraction(2)}).to_json())
        code, out, _ = run(["--epsilon", eps, "pair", "--input", path], capsys)
        assert code == 0
        assert json.loads(out)["pairings"]["ww"] == "1/1"


class TestSplittingCommand:
    def test_orthogonal_model(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", canonical_model(0).to_json())
        code, out, _ = run(["splitting", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 0 and report["orthogonal"] is True

    @pytest.mark.parametrize("alpha", [Fraction(1), Fraction(13, 4)])
    def test_model_degree(self, alpha, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", canonical_model(alpha).to_json())
        code, out, _ = run(["splitting", "--input", path], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["degree"] == pytest.approx(float(alpha), abs=1e-12)
        assert report["degree_squared"] == f"{(alpha * alpha).numerator}/{(alpha * alpha).denominator}"
        assert report["canonical_model_residual"] <= 1e-9

    def test_invalid_span_rejected(self, tmp_path, capsys):
        payload = {
            "L1": MultiVector.basis(4, (1, 2)).to_json(),
            "L2": MultiVector.basis(4, (3, 4)).to_json(),
        }
        path = write_json(tmp_path, "in.json", payload)
        code, _, err = run(["splitting", "--input", path], capsys)
        assert code == 1 and "malformed" in err


class TestHypersurfaceCommand:
    def test_heisenberg_points(self, tmp_path, capsys):
        from pathgeom import heisenberg_model

        payload = {
            "map": heisenberg_model().to_json(),
            "points": [["0", "1/2", "1/3"], ["1/5", "0", "2/7"]],
        }
        path = write_json(tmp_path, "in.json", payload)
        code, out, _ = run(["hypersurface", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["points"]) == 2
        assert all(rec["contact"] and rec["compatible"] for rec in report["points"])

    def test_affine_plane_contact_false(self, tmp_path, capsys):
        from pathgeom import affine_plane_model

        payload = {"map": affine_plane_model().to_json(), "points": [["0", "0", "0"]]}
        path = write_json(tmp_path, "in.json", payload)
        code, out, _ = run(["hypersurface", "--input", path], capsys)
        assert code == 0
        rec = json.loads(out)["points"][0]
        assert rec["contact"] is False and rec["compatible"] is None

    def test_empty_point_list(self, tmp_path, capsys):
        from pathgeom import heisenberg_model

        payload = {"map": heisenberg_model().to_json(), "points": []}
        path = write_json(tmp_path, "in.json", payload)
        code, out, _ = run(["hypersurface", "--input", path], capsys)
        assert code == 0 and json.loads(out)["points"] == []

    def test_malformed_map(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", {"map": {"components": "nope"}})
        code, _, err = run(["hypersurface", "--input", path], capsys)
        assert code == 1 and "malformed" in err

    def test_non_integral_exponent_rejected(self, tmp_path, capsys):
        data = heisenberg_model().to_json()
        data["components"][3][0]["exp"] = [0, 1.5, 0]
        path = write_json(tmp_path, "in.json", {"map": data, "points": [["0", "1/2", "1/3"]]})
        code, out, err = run(["hypersurface", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "integers" in err and len(err.splitlines()) == 1


class TestEdsCommand:
    def test_sampled_run_passes(self, capsys):
        code, out, _ = run(["eds", "--samples", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert [e["characters"] for e in report["samples"]] == [[0, 2, 4, 3]] * 3

    def test_zero_samples(self, capsys):
        code, out, _ = run(["eds", "--samples", "0"], capsys)
        assert code == 0
        assert json.loads(out) == {"samples": [], "all_pass": True}

    def test_explicit_sample(self, tmp_path, capsys):
        payload = {"samples": [{"W1": "1", "W2": "2", "F1": "3", "F2": "4"}]}
        path = write_json(tmp_path, "in.json", payload)
        code, out, _ = run(["eds", "--input", path], capsys)
        assert code == 0
        entry = json.loads(out)["samples"][0]
        assert entry["W1"] == "1/1" and entry["codim"] == 8 and entry["involutive"] is True

    def test_seeded_runs_deterministic(self, capsys):
        _, out1, _ = run(["--seed", "7", "eds", "--samples", "5"], capsys)
        _, out2, _ = run(["--seed", "7", "eds", "--samples", "5"], capsys)
        assert out1 == out2

    def test_negative_samples_rejected(self, capsys):
        code, _, err = run(["eds", "--samples", "-1"], capsys)
        assert code == 1 and "nonnegative" in err

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        from pathgeom import eds as eds_mod
        from pathgeom.eds import InvolutivityReport

        monkeypatch.setattr(
            eds_mod, "verify_involutivity", lambda samples: InvolutivityReport(({"pass": False},), False)
        )
        code, out, _ = run(["eds", "--samples", "1"], capsys)
        assert code == 2 and json.loads(out)["all_pass"] is False


class TestEdsGoldenOutput:
    """sha256 of the rendered report, captured before verdicts were shared per ideal."""

    @pytest.mark.parametrize("args, digest", [
        (["eds", "--samples", "200"], "5da2f1b17608aa57864afa26a9d644c48ebdbfc2d969b6af38d38f557d3a8b63"),
        (["--seed", "7", "eds", "--samples", "50"], "5a4faeb33567b1744806a46231f0f5456d422caf3d4188e141bb3aa44d0600d1"),
    ])
    def test_sampled_report(self, args, digest, capsys):
        code, out, _ = run(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_explicit_request_with_a_repeated_sample(self, tmp_path, capsys):
        repeated = {"W1": "1/3", "W2": "-2", "F1": "7/5", "F2": "0"}
        zero = {"W1": "0", "W2": "0", "F1": "0", "F2": "0"}
        path = write_json(tmp_path, "in.json", {"samples": [repeated, zero, repeated]})
        code, out, _ = run(["eds", "--input", path], capsys)
        assert code == 0
        digest = "4ea470650201cb19b594a3609834fd8a84e5cbe9e757b536a68ec30910f9c121"
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestInputBoundary:
    @pytest.mark.parametrize("command", ["pair", "splitting", "hypersurface"])
    @pytest.mark.parametrize("payload", [[1, 2], "abc", 5])
    def test_non_object_payload_rejected(self, command, payload, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run([command, "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("command", ["pair", "splitting"])
    def test_non_finite_coefficient_rejected(self, command, value, tmp_path, capsys):
        payload = pair_payload(OMEGA0, PHI0) if command == "pair" else canonical_model(1).to_json()
        first = "omega" if command == "pair" else "L1"
        payload[first]["terms"][0]["c"] = value
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run([command, "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "non-finite" in err and len(err.splitlines()) == 1


    @pytest.mark.parametrize("command, payload", [
        ("pair", pair_payload(OMEGA0 * 1e308, PHI0 * -1e308)),
        ("pair", pair_payload(OMEGA0 * 1e200, MultiVector.basis(4, (1, 2)))),
        ("splitting", {"L1": (OMEGA0 * 1e200).to_json(), "L2": ((OMEGA0 + PHI0) * 1e200).to_json()}),
    ], ids=["pair-1e308", "pair-1e200-omega", "splitting-1e200"])
    def test_overflowing_pairing_rejected(self, command, payload, tmp_path, capfd):
        # capfd, not capsys: LAPACK warnings go to file descriptor 2
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run([command, "--input", path], capfd)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, payload", [
        ("hypersurface", {"map": heisenberg_model().to_json(), "points": [[0, 1e308, 1]]}),
        ("pair", pair_payload(OMEGA0, PHI0 * Fraction(10**400))),
    ], ids=["hypersurface-point-1e308", "pair-exact-1e400"])
    def test_overflow_error_rejected(self, command, payload, tmp_path, capfd):
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run([command, "--input", path], capfd)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_overflowing_gram_rejected(self, tmp_path, capsys):
        payload = {"L1": (OMEGA0 * 1e100).to_json(), "L2": ((OMEGA0 + PHI0) * 1e100).to_json()}
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run(["splitting", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Gram determinant overflowed" in err and len(err.splitlines()) == 1


class TestOutputFile:
    def test_out_path(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(["--out", str(out_path), "eds", "--samples", "1"], capsys)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["all_pass"] is True

    def test_bad_tolerance(self, capsys):
        code, _, err = run(["--tol", "-1", "eds", "--samples", "1"], capsys)
        assert code == 1 and "tolerance" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tol, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0, PHI0))
        code, out, err = run(["--tol", tol, "pair", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "tolerance" in err and len(err.splitlines()) == 1
