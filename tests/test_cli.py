import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pathgeom
from pathgeom import (
    MultiVector, OMEGA0, PHI0, act, canonical_model, conformal_pairing, heisenberg_model, linalg, pullback,
)
from pathgeom.cli import MAX_SAMPLES, main, render_json
from pathgeom.hypersurface import MAX_JET_DIGITS
from pathgeom.polynomials import MAX_EXPONENT


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


def float_gl_plus(rng) -> list:
    """A random float matrix with positive determinant, entries in [-2, 2], as rows."""
    a = [[1, 0, 0, 0]] * 4
    while linalg.det(a) <= 0:
        a = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
    return a


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

    @pytest.mark.parametrize("phi", [PHI0, OMEGA0 + PHI0 * 3, OMEGA0],
                             ids=["elliptic", "elliptic-not-orthogonal", "symplectic-not-elliptic"])
    def test_orthogonalizes_once(self, phi, tmp_path, capsys, monkeypatch):
        import pathgeom.pairs as pairs

        counter = {"calls": 0}
        original = pairs.orthogonalize

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pairs, "orthogonalize", counted)
        code, out, _ = run(["pair", "--input", write_json(tmp_path, "in.json", pair_payload(OMEGA0, phi))], capsys)
        assert code == 0 and "orthogonalized_phi" in json.loads(out)
        assert counter["calls"] == 1

    @pytest.mark.parametrize("scale", [1e20, 1e-20])
    @pytest.mark.parametrize("seed", range(4))
    def test_normal_form_ignores_the_input_scale(self, seed, scale, tmp_path, capsys):
        rng = random.Random(seed)
        a = float_gl_plus(rng)
        kappa = rng.choice([0.1, 0.5, 2.0, 3.0])
        omega, phi = pullback(OMEGA0 * scale, a), pullback(PHI0 * (kappa * scale), a)
        code, out, err = run(["pair", "--input", write_json(tmp_path, "in.json", pair_payload(omega, phi))], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["kappa"] == pytest.approx(kappa, rel=1e-9)
        assert report["reconstruction_residual"] <= 1e-9 * max(omega.norm_inf(), phi.norm_inf())

    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    @pytest.mark.parametrize("elliptic", [True, False], ids=["elliptic", "not-elliptic"])
    def test_elliptic_verdict_ignores_the_input_scale(self, elliptic, scale, tmp_path, capsys):
        a = float_gl_plus(random.Random(3))
        second = PHI0 * 2 if elliptic else MultiVector.basis(4, (1, 2)) - MultiVector.basis(4, (3, 4))
        payload = pair_payload(pullback(OMEGA0 * scale, a), pullback(second * scale, a))
        code, out, err = run(["pair", "--input", write_json(tmp_path, "in.json", payload)], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["elliptic"] is elliptic
        if elliptic:
            assert report["kappa"] == pytest.approx(2.0, rel=1e-12)

    def test_overflowing_pairing_is_a_one_line_error(self, tmp_path, capsys):
        """Pairings of about 1e320 are exact, so the report is printed with κ = 2."""
        a = float_gl_plus(random.Random(3))
        payload = pair_payload(pullback(OMEGA0 * 1e160, a), pullback(PHI0 * 2e160, a))
        code, out, err = run(["pair", "--input", write_json(tmp_path, "in.json", payload)], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["elliptic"] is True and report["kappa"] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("tol", ["1e-9", "1e-12"])
    def test_float_pairs_are_orthogonalized_exactly(self, tol, tmp_path, capsys):
        """Float GL⁺ pullbacks at condition 1e5–1e7: one exact verdict, and ⟨ω,φ′⟩ = 0 exactly."""
        for seed in range(100):
            rng = random.Random(seed)
            a = [[1, 0, 0, 0]] * 4
            while linalg.det(a) <= 0:
                a = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
                a[0] = [x * 10 ** rng.uniform(5, 7) for x in a[0]]
            omega, phi = (pullback(form, a) for form in (OMEGA0, PHI0 * rng.uniform(0.1, 10) + OMEGA0 * rng.uniform(-2, 2)))
            payload = {name: {"dim": 4, "degree": 2, "terms": [{"idx": list(i), "c": float(c)} for i, c in f.terms.items()]}
                       for name, f in (("omega", omega), ("phi", phi))}
            code, out, err = run(["--tol", tol, "pair", "--input", write_json(tmp_path, "in.json", payload)], capsys)
            assert code == 0, (seed, err)
            report = json.loads(out)
            assert report["elliptic"] is True and report["normal_form"] is not None
            phi_orth = MultiVector.from_json(report["orthogonalized_phi"])
            assert conformal_pairing(MultiVector.from_json(payload["omega"]), phi_orth) == 0

    @pytest.mark.parametrize("c", [Fraction(-1), Fraction(-1, 2), Fraction(-3)], ids=str)
    def test_negative_epsilon_flips_and_keeps_kappa(self, c, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0, PHI0))
        eps = json.dumps(MultiVector(4, 4, {(1, 2, 3, 4): c}).to_json())
        code, out, err = run(["--epsilon", eps, "pair", "--input", path], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["kappa"] == 1 and report["normal_form"]["epsilon_flipped"] is True

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


def count_calls(monkeypatch, name: str) -> dict:
    """Count calls of ``exterior.<name>``, under every name a pathgeom module binds it to."""
    import pathgeom.exterior as exterior

    counter = {"calls": 0}
    original = getattr(exterior, name)

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    for name in ("exterior", "pairs", "splitting", "cli"):
        module = importlib.import_module(f"pathgeom.{name}")
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    return counter


class TestPairingsComputedOnce:
    """Each pair of 2-forms gets its wedge Gram once; the rest reads it."""

    def test_elliptic_pair_request(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0 * 3, OMEGA0 + PHI0 * Fraction(2, 5)))
        counter = count_calls(monkeypatch, "conformal_pairing")
        wedges = count_calls(monkeypatch, "wedge")
        code, out, _ = run(["pair", "--input", path], capsys)
        assert code == 0 and json.loads(out)["kappa"] is not None
        # the request's Gram, orthogonalize's two pairings, the EllipticPair's Gram
        assert counter["calls"] <= 8
        # one wedge per pairing; the normal form is checked without wedges
        assert wedges["calls"] <= 8

    def test_elliptic_pair_takes_one_square_root(self, tmp_path, capsys, monkeypatch):
        """κ is printed from the normal form, which took the root of ⟨φ,φ⟩/⟨ω,ω⟩ itself."""
        import pathgeom.pairs as pairs

        roots = []
        original = pairs.sqrt_of

        def counted(q):
            roots.append(q)
            return original(q)

        monkeypatch.setattr(pairs, "sqrt_of", counted)
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0 * 3, OMEGA0 + PHI0 * Fraction(2, 5)))
        code, out, _ = run(["pair", "--input", path], capsys)
        assert code == 0 and json.loads(out)["kappa"] == original(roots[0])
        assert len(roots) == 1

    def test_splitting_request(self, tmp_path, capsys, monkeypatch):
        a = ((2, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 3), (0, 0, 0, 1))
        path = write_json(tmp_path, "in.json", act(a, canonical_model(Fraction(3, 4))).to_json())
        counter = count_calls(monkeypatch, "conformal_pairing")
        code, out, _ = run(["splitting", "--input", path], capsys)
        assert code == 0 and json.loads(out)["degree_squared"] == "9/16"
        # the Grams of the splitting and of its canonical model
        assert counter["calls"] <= 6


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

    def test_far_points_keep_their_coframe(self, tmp_path, capsys):
        """Exact b₁×b₂ whose floats would underflow (sphere chart) or whose squares would overflow (Heisenberg).

        At (10⁸¹, 1, 0) η₁ has no normal float left once scaled back, so that
        record is an error, not a covector printed as zeros and subnormals.
        """
        from pathgeom import sphere_chart_model

        records = []
        for u, points in ((sphere_chart_model(), [[str(10**41), "0", "0"], [str(10**81), "1", "0"]]),
                          (heisenberg_model(), [["0", str(10**160), "0"]])):
            path = write_json(tmp_path, "in.json", {"map": u.to_json(), "points": points})
            code, out, _ = run(["hypersurface", "--input", path], capsys)
            assert code == 0 and "float division by zero" not in out
            records += json.loads(out)["points"]
        near, far, wide = records
        for rec in (near, wide):
            assert "error" not in rec and rec["contact"] is True and rec["compatible"] is True
            assert sum(x * x for x in rec["coframe"]["eta2"]) == pytest.approx(1.0)
        assert far["error"].startswith("adapted coframe underflows") and "coframe" not in far

    @pytest.mark.parametrize("model, point, error", [
        ("heisenberg", [0, 1e308, 1], f"adapted coframe overflows at (0/1, {10**308}/1, 1/1)"),
        ("heisenberg", [0, 10**400, 0], f"adapted coframe overflows at (0/1, {10**400}/1, 0/1)"),
        ("sphere", [10**100, 0, 0], f"adapted coframe underflows at ({10**100}/1, 0/1, 0/1)"),
    ], ids=["heisenberg-1e308", "heisenberg-1e400", "sphere-1e100"])
    def test_coframe_beyond_float_range_is_a_record_error(self, model, point, error, tmp_path, capsys):
        """A point whose η is not a float vector fails its own record; the other points keep theirs."""
        from pathgeom import sphere_chart_model

        u = heisenberg_model() if model == "heisenberg" else sphere_chart_model()
        near = [["0", "1/2", "1/3"], ["1/5", "2", "2/7"]]
        path = write_json(tmp_path, "in.json", {"map": u.to_json(), "points": [near[0], point, near[1]]})
        code, out, err = run(["hypersurface", "--input", path], capsys)
        assert code == 0 and err == ""
        first, far, last = json.loads(out)["points"]
        assert far["error"] == error and "coframe" not in far
        path = write_json(tmp_path, "near.json", {"map": u.to_json(), "points": near})
        _, alone, _ = run(["hypersurface", "--input", path], capsys)
        assert [first, last] == json.loads(alone)["points"]
        assert all("error" not in rec for rec in (first, last))

    @pytest.mark.parametrize("model, point, field", [
        ("heisenberg", ["1e4300", "1", "1"], "point"),
        ("sphere", ["1e1500", "1", "1"], "b1"),
    ], ids=["heisenberg-point-1e4300", "sphere-b1-at-1e1500"])
    def test_value_past_the_digit_limit_is_a_record_error(self, model, point, field, tmp_path, capsys):
        """A point with a field that could not be written fails its own record; the other points keep theirs."""
        from pathgeom import sphere_chart_model

        u = heisenberg_model() if model == "heisenberg" else sphere_chart_model()
        near = [["0", "1/2", "1/3"], ["1/5", "2", "2/7"]]
        path = write_json(tmp_path, "in.json", {"map": u.to_json(), "points": [near[0], point, near[1]]})
        code, out, err = run(["hypersurface", "--input", path], capsys)
        assert code == 0 and err == ""
        first, far, last = json.loads(out)["points"]
        assert "more than 4300 digits" in far["error"] and far.get(field) is None
        path = write_json(tmp_path, "near.json", {"map": u.to_json(), "points": near})
        _, alone, _ = run(["hypersurface", "--input", path], capsys)
        assert [first, last] == json.loads(alone)["points"]

    def test_empty_point_list(self, tmp_path, capsys):
        from pathgeom import heisenberg_model

        payload = {"map": heisenberg_model().to_json(), "points": []}
        path = write_json(tmp_path, "in.json", payload)
        code, out, _ = run(["hypersurface", "--input", path], capsys)
        assert code == 0 and json.loads(out)["points"] == []

    def test_repeated_terms_are_summed(self, tmp_path, capsys):
        """x₁ − x₁ written as two terms of one exponent is 0: u = (0, x₂, x₃, x₁²) is no immersion at 0."""
        x1, x2, x3 = ({"exp": [int(i == k) for i in range(3)], "c": "1"} for k in range(3))
        components = [[x1, {**x1, "c": "-1"}], [x2], [x3], [{"exp": [2, 0, 0], "c": "1"}]]
        payload = {"map": {"vars": ["x1", "x2", "x3"], "components": components}, "points": [["0", "0", "0"]]}
        code, out, err = run(["hypersurface", "--input", write_json(tmp_path, "in.json", payload)], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["points"] == [
            {"point": ["0/1", "0/1", "0/1"], "error": "map is not an immersion at (0/1, 0/1, 0/1): Jacobian rank < 3"}]

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

    def test_string_exponent_rejected(self, tmp_path, capsys):
        data = heisenberg_model().to_json()
        data["components"][3][0]["exp"] = ["5", 0, 0]
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


class TestSplittingGoldenOutput:
    """sha256 of the rendered report, captured before the plane comparison went through the wedge Gram."""

    E = MultiVector.basis
    ASD = E(4, (1, 3)) + E(4, (2, 4))  # anti-self-dual: the wedge pairing is negative on it

    @pytest.mark.parametrize("payload, digest", [
        (canonical_model(0).to_json(), "2c21a9e2ace7031264c4903e320a89e5161d46510f31fb0c1a965f2b9329c264"),
        (canonical_model(Fraction(13, 4)).to_json(), "0d72f8f72eea70a5efe12a225bf32c76a669cd0d09344d4e8452deb762540aa4"),
        (act(((1, 2, 0, 0), (0, 1, 3, 0), (0, 0, 1, -1), (1, 0, 0, 2)), canonical_model(Fraction(2, 3))).to_json(),
         "bae0b19cb2010cf0b3d2590307497fcb93b4cfdec081d4444f015a9f1000bb57"),
        ({"L1": ASD.to_json(), "L2": (ASD * 2 + E(4, (1, 4)) - E(4, (2, 3))).to_json()},
         "8d10da46cdaac969d94590d211d552c85b4f8a6bec3f5cd760e61862b66ed54d"),
        # recaptured when float coefficients became exact: degree² is now "1/36", not 0.027777777777777776
        ({"L1": (OMEGA0 * 0.5).to_json(), "L2": (OMEGA0 * 0.25 + PHI0 * 1.5).to_json()},
         "c46b447b272e73581bf12f727e4e82c763f132f31d497428762e66419555f700"),
    ], ids=["model-0", "model-13/4", "pullback-2/3", "flipped", "float"])
    def test_report(self, payload, digest, tmp_path, capsys):
        code, out, _ = run(["splitting", "--input", write_json(tmp_path, "in.json", payload)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


SPLITTING_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "splitting_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(SPLITTING_GOLDEN))
def test_splitting_report_matches_golden(name, tmp_path, capsys):
    """Byte-for-byte stdout on canonical models and exact and float GL⁺ pullbacks of them."""
    case = SPLITTING_GOLDEN[name]
    code, out, _ = run(["splitting", "--input", write_json(tmp_path, "in.json", case["payload"])], capsys)
    assert code == 0 and out == case["stdout"]


PAIR_GOLDEN = json.loads((Path(__file__).parent / "data" / "pair_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(PAIR_GOLDEN))
def test_pair_report_matches_golden(name, tmp_path, capsys):
    """Every field but the normal-form basis and its residual, captured before the normal form went exact.

    The κ-normal form is not unique, so the basis may change with the
    construction; it must still rebuild the pair to 1e-9.  A case may give
    its own command line (``argv``, default ``["pair"]``); ``--input`` is
    appended to it.
    """
    case = PAIR_GOLDEN[name]
    argv = case.get("argv", ["pair"]) + ["--input", write_json(tmp_path, "in.json", case["payload"])]
    code, out, _ = run(argv, capsys)
    report = json.loads(out)
    assert code == 0
    if report["normal_form"] is not None:
        assert len(report["normal_form"].pop("basis")) == 4
        assert report.pop("reconstruction_residual") <= 1e-9
    assert report == case["report"]


class TestInputBoundary:
    @pytest.mark.parametrize("command", ["pair", "splitting", "hypersurface"])
    @pytest.mark.parametrize("payload", [[1, 2], "abc", 5])
    def test_non_object_payload_rejected(self, command, payload, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run([command, "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("hmap", [[1], "x", None])
    def test_non_object_map_rejected(self, hmap, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", {"map": hmap, "points": []})
        code, out, err = run(["hypersurface", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "JSON object" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["pair", "splitting", "hypersurface", "eds"])
    def test_deep_nesting_rejected(self, command, tmp_path, capfd):
        path = tmp_path / "in.json"
        path.write_text("[" * 100000, encoding="utf-8")
        code, out, err = run([command, "--input", str(path)], capfd)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error:") and "recursion" in err and len(err.splitlines()) == 1

    def test_deep_epsilon_rejected(self, capfd):
        code, out, err = run(["--epsilon", "[" * 100000, "eds", "--samples", "1"], capfd)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error:") and "recursion" in err and len(err.splitlines()) == 1

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


    @pytest.mark.parametrize("command, payload, expected", [
        ("pair", pair_payload(OMEGA0 * 1e308, PHI0 * -1e308), {"elliptic": True, "kappa": 1}),
        ("pair", pair_payload(OMEGA0 * 1e200, MultiVector.basis(4, (1, 2))), {"elliptic": False}),
        ("splitting", {"L1": (OMEGA0 * 1e200).to_json(), "L2": ((OMEGA0 + PHI0) * 1e200).to_json()},
         {"degree": 1, "degree_squared": "1/1"}),
    ], ids=["pair-1e308", "pair-1e200-omega", "splitting-1e200"])
    def test_overflowing_pairing_rejected(self, command, payload, expected, tmp_path, capsys):
        """Pairings past the float range are exact, so the report is printed."""
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run([command, "--input", path], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert {k: report[k] for k in expected} == expected

    @pytest.mark.parametrize("command, payload", [
        ("pair", {"omega": {"dim": 4, "degree": 2, "terms": [{"idx": [1, 3], "c": "1e4300"}, {"idx": [2, 4], "c": -1}]},
                  "phi": PHI0.to_json()}),
        ("splitting", {"L1": OMEGA0.to_json(), "L2": {"dim": 4, "degree": 2, "terms": [
            {"idx": [1, 3], "c": "1e2200"}, {"idx": [2, 4], "c": "-1e2200"}, {"idx": [1, 4], "c": 1}, {"idx": [2, 3], "c": 1}]}}),
        ("eds", {"samples": [{"W1": "1/2", "W2": "0", "F1": "0", "F2": "0"}, {"W1": "1", "W2": "-1e-4300", "F1": "0", "F2": "0"}]}),
    ], ids=["pair-1e4300", "splitting-degree-1e4400", "eds-1e-4300"])
    def test_value_past_the_digit_limit_is_refused(self, command, payload, tmp_path, capsys):
        """An exact value that could not be written is refused with a message that names the limit."""
        code, out, err = run([command, "--input", write_json(tmp_path, "in.json", payload)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "more than 4300 digits" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, payload", [
        ("pair", pair_payload(OMEGA0, PHI0 * Fraction(10**400))),
    ], ids=["pair-exact-1e400"])
    def test_overflow_error_rejected(self, command, payload, tmp_path, capfd):
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run([command, "--input", path], capfd)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, payload, field, expected, square", [
        ("splitting", {"L1": OMEGA0.to_json(), "L2": (OMEGA0 * Fraction(10**200) + PHI0).to_json()}, "degree", 1e200,
         f"{10**400}/1"),
        ("splitting", {"L1": OMEGA0.to_json(), "L2": (OMEGA0 * Fraction(1, 10**200) + PHI0).to_json()}, "degree",
         1e-200, f"1/{10**400}"),
        ("pair", pair_payload(OMEGA0, PHI0 * Fraction(10**200)), "kappa", 1e200, None),
    ], ids=["splitting-degree-1e200", "splitting-degree-1e-200", "pair-kappa-1e200"])
    def test_root_of_a_square_past_the_float_range(self, command, payload, field, expected, square, tmp_path, capsys):
        """A degree or κ whose exact square is beyond the float range is printed."""
        code, out, err = run([command, "--input", write_json(tmp_path, "in.json", payload)], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report[field] == expected
        if square is not None:
            assert report["degree_squared"] == square and report["canonical_model_residual"] == 0

    @pytest.mark.parametrize("command, payload", [
        ("pair", pair_payload(OMEGA0, PHI0 * Fraction(10**400))),
        ("splitting", {"L1": OMEGA0.to_json(), "L2": (OMEGA0 * Fraction(10**400) + PHI0).to_json()}),
    ], ids=["pair-kappa-1e400", "splitting-degree-1e400"])
    def test_root_past_the_float_range_is_one_line(self, command, payload, tmp_path, capsys):
        code, out, err = run([command, "--input", write_json(tmp_path, "in.json", payload)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "beyond the float range" in err and len(err.splitlines()) == 1

    def test_overflowing_gram_rejected(self, tmp_path, capsys):
        """No longer rejected: the pairings are exact, and ``splitting`` and ``pair`` both accept 1e100·(ω₀, φ₀)."""
        payload = {"L1": (OMEGA0 * 1e100).to_json(), "L2": ((OMEGA0 + PHI0) * 1e100).to_json()}
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run(["splitting", "--input", path], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["degree"] == 1 and report["degree_squared"] == "1/1" and report["epsilon_flipped"] is False
        path = write_json(tmp_path, "pair.json", pair_payload(OMEGA0 * 1e100, PHI0 * 1e100))
        code, out, _ = run(["pair", "--input", path], capsys)
        assert code == 0 and json.loads(out)["elliptic"] is True


class TestBadArguments:
    """A bad command line is malformed input: exit 1 and one ``error:`` line, as for a bad payload."""

    @pytest.mark.parametrize("argv, message", [
        (["--tol", "abc", "pair"], "--tol"),
        (["eds", "--samples", "x"], "--samples"),
        (["no-such-command"], "invalid choice"),
        ([], "required"),
    ], ids=["tol-abc", "samples-x", "unknown-command", "no-command"])
    def test_exits_1_with_one_line(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err and len(err.splitlines()) == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0 and "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["pair", "--help"], ["-h"], ["eds", "--samples", "3", "-h"]])
    def test_help_after_the_command_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0 and "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["pair", "--tol", "1e-3"], "--tol"),
        (["hypersurface", "--out", "report.json"], "--out"),
        (["pair", "--samples", "3"], "--samples"),
        (["--input", "in.json", "pair"], "--input"),
        (["pair", "--inp", "in.json"], "--inp"),
        (["--to", "1e-3", "pair"], "--to"),
        (["pair", "extra"], "extra"),
        (["pair", "--input"], "--input"),
        (["--seed", "1.5", "eds", "--samples", "1"], "--seed"),
    ], ids=["global-after-command", "out-after-command", "samples-on-pair", "input-before-command",
            "abbreviated-input", "abbreviated-tol", "extra-argument", "missing-value", "seed-not-integer"])
    def test_misplaced_or_unknown_option(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err and len(err.splitlines()) == 1

    def test_equals_form_reads_the_same(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0, PHI0 * 2))
        spaced = run(["--tol", "1e-6", "pair", "--input", path], capsys)
        assert spaced[0] == 0 and run(["--tol=1e-6", "pair", f"--input={path}"], capsys) == spaced

    def test_last_value_wins(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0, PHI0 * 2))
        expected = run(["pair", "--input", path], capsys)
        assert expected[0] == 0
        assert run(["--tol", "nan", "--tol=1e-9", "pair", "--input", str(tmp_path / "missing.json"), "--input", path],
                   capsys) == expected
        assert run(["--seed", "7", "--seed=3", "eds", "--samples", "2"], capsys) == run(
            ["--seed", "3", "eds", "--samples", "2"], capsys)

    def test_no_argv_reads_the_command_line(self, monkeypatch, capsys):
        """The ``pathgeom`` console script calls ``main()`` with no arguments."""
        monkeypatch.setattr(sys, "argv", ["pathgeom", "eds", "--samples", "1"])
        code, out, err = run(None, capsys)
        assert code == 0 and err == "" and json.loads(out)["all_pass"] is True


class TestOutputFile:
    def test_out_path(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(["--out", str(out_path), "eds", "--samples", "1"], capsys)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["all_pass"] is True

    def test_unwritable_out_path(self, tmp_path, capfd):
        missing = tmp_path / "no-such-dir" / "report.json"
        code, out, err = run(["--out", str(missing), "eds", "--samples", "1"], capfd)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error:") and "cannot write" in err and len(err.splitlines()) == 1

    def test_bad_tolerance(self, capsys):
        code, _, err = run(["--tol", "-1", "eds", "--samples", "1"], capsys)
        assert code == 1 and "tolerance" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tol, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", pair_payload(OMEGA0, PHI0))
        code, out, err = run(["--tol", tol, "pair", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "tolerance" in err and len(err.splitlines()) == 1


EXACT_REQUESTS = [
    ("pair", pair_payload(OMEGA0, PHI0 * Fraction(7, 3) + OMEGA0)),
    ("splitting", canonical_model(Fraction(2, 3)).to_json()),
    ("hypersurface", {"map": heisenberg_model().to_json(), "points": [["0", "1/2", "1/3"]]}),
    ("eds", {"samples": [{"W1": "1", "W2": "2", "F1": "3", "F2": "4"}]}),
]


def fresh_python(code, *args, timeout=60):
    """Run ``python -c code args`` in a new interpreter on this checkout's ``src``."""
    src = str(Path(pathgeom.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=timeout,
    )


class TestNumpyStaysUnloaded:
    """No request imports numpy, which no module of the library uses.

    No request imports ``dataclasses`` or ``inspect`` either, which would add
    ``ast``, ``dis`` and ``tokenize`` to the start of every request, nor
    ``argparse`` with its ``gettext`` and ``locale``.
    """

    PROBE = (
        "import sys; from pathgeom.cli import main; code = main(sys.argv[1:]); "
        "print(*(m for m in ('numpy', 'dataclasses', 'inspect', 'argparse', 'gettext', 'locale') "
        "if m in sys.modules), file=sys.stderr); "
        "sys.exit(code)"
    )

    @pytest.mark.parametrize("command, payload", EXACT_REQUESTS, ids=[c for c, _ in EXACT_REQUESTS])
    def test_exact_request(self, command, payload, tmp_path):
        proc = fresh_python(self.PROBE, command, "--input", write_json(tmp_path, "in.json", payload))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == ""

    def test_float_pair_request(self, tmp_path):
        payload = pair_payload(OMEGA0 * 0.5 + PHI0 * 0.25, PHI0 * 1.5)
        proc = fresh_python(self.PROBE, "pair", "--input", write_json(tmp_path, "in.json", payload))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == ""

    def test_zero_eds_samples(self):
        proc = fresh_python(self.PROBE, "eds", "--samples", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == ""


class TestEachCommandLoadsItsOwnPipeline:
    """A subcommand executes only the pathgeom modules its pipeline uses; ``import pathgeom`` none.

    Every submodule is in ``sys.modules`` from ``import pathgeom`` on; one not
    yet executed is still a lazy module, not a plain ``ModuleType``.
    """

    EXECUTED = (
        "import sys, types; "
        "print(' '.join(sorted(n for n, m in sys.modules.items() "
        "if n.startswith('pathgeom') and type(m) is types.ModuleType)), file=sys.stderr)"
    )
    PROBE = f"import sys; from pathgeom.cli import main; code = main(sys.argv[1:]); {EXECUTED}; sys.exit(code)"
    BASE = {"pathgeom", "pathgeom.cli", "pathgeom.scalars"}
    OWN = {
        "pair": {"pathgeom.exterior", "pathgeom.linalg", "pathgeom.pairs"},
        "splitting": {"pathgeom.exterior", "pathgeom.linalg", "pathgeom.splitting"},
        "hypersurface": {"pathgeom.polynomials", "pathgeom.hypersurface"},
        "eds": {"pathgeom.exterior", "pathgeom.linalg", "pathgeom.eds"},
    }
    #: each submodule with one name it defines
    SUBMODULES = {
        "scalars": "scalar_to_json", "linalg": "rank", "exterior": "wedge", "polynomials": "Poly",
        "pairs": "normal_form", "splitting": "Splitting", "hypersurface": "ParamMap", "eds": "verify_sample",
    }

    @pytest.mark.parametrize("command, payload", EXACT_REQUESTS, ids=[c for c, _ in EXACT_REQUESTS])
    def test_request(self, command, payload, tmp_path):
        proc = fresh_python(self.PROBE, command, "--input", write_json(tmp_path, "in.json", payload))
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stderr.split()) == self.BASE | self.OWN[command]

    def test_zero_eds_samples(self):
        proc = fresh_python(self.PROBE, "eds", "--samples", "0")
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stderr.split()) == self.BASE | {"pathgeom.exterior", "pathgeom.eds"}

    def test_bare_import(self):
        proc = fresh_python(f"import pathgeom; {self.EXECUTED}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["pathgeom"]

    def test_cli_import_registers_every_submodule(self):
        """``perfbench/layers.py`` wraps functions only in modules listed right after ``import pathgeom.cli``."""
        proc = fresh_python("import sys, pathgeom.cli; print(' '.join(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert {f"pathgeom.{name}" for name in self.SUBMODULES} <= set(proc.stdout.split())

    @pytest.mark.parametrize("name, attr", SUBMODULES.items())
    def test_bare_import_binds_every_submodule(self, name, attr):
        proc = fresh_python(f"import sys, pathgeom; m = pathgeom.{name}; m.{attr}; "
                            f"assert m is sys.modules['pathgeom.{name}'] and m.__name__ == 'pathgeom.{name}'")
        assert proc.returncode == 0, proc.stderr


class TestWorkLimits:
    """A small input that asks for unbounded work exits 1 at once, in a fresh interpreter."""

    MAIN = "import sys; from pathgeom.cli import main; sys.exit(main(sys.argv[1:]))"

    def rejected(self, *args):
        proc = fresh_python(self.MAIN, *args, timeout=10)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
        return proc.stderr

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 3_000_000])
    def test_samples_above_the_cap(self, samples):
        assert str(MAX_SAMPLES) in self.rejected("eds", "--samples", str(samples))

    def test_samples_at_the_cap_are_read(self, capsys):
        code, out, _ = run(["eds", "--samples", str(MAX_SAMPLES)], capsys)
        assert code == 0 and len(json.loads(out)["samples"]) == MAX_SAMPLES

    @pytest.mark.parametrize("exponent", [1e30, 2_000_000, MAX_EXPONENT + 1])
    def test_exponent_above_the_cap(self, exponent, tmp_path):
        data = heisenberg_model().to_json()
        data["components"][3][0]["exp"] = [exponent, 0, 0]
        path = write_json(tmp_path, "in.json", {"map": data, "points": [["3/2", "0", "0"]]})
        assert str(MAX_EXPONENT) in self.rejected("hypersurface", "--input", path)

    def test_exponent_at_the_cap_is_read(self, tmp_path, capsys):
        data = heisenberg_model().to_json()
        data["components"][3][0]["exp"] = [MAX_EXPONENT, 0, 0]
        path = write_json(tmp_path, "in.json", {"map": data, "points": [["3/2", "1/2", "1/3"]]})
        code, out, _ = run(["hypersurface", "--input", path], capsys)
        assert code == 0 and len(json.loads(out)["points"]) == 1

    @pytest.mark.parametrize("command", ["pair", "splitting"])
    @pytest.mark.parametrize("degree, message", [(2, "mixed degrees in term list"),
                                                 (50_000, "degree must be between 0 and 4, got 50000")],
                             ids=["term-of-50000-indices", "degree-50000"])
    def test_a_long_index_list_is_refused_before_it_is_sorted(self, command, degree, message, tmp_path):
        """A form with one term of 50 000 indices, in descending order, is refused without sorting them.

        Sorting an index list takes time quadratic in its length, so the
        degree is checked against the dimension, and each list's length
        against the degree, first.
        """
        form = {"dim": 4, "degree": degree, "terms": [{"idx": list(range(50_000, 0, -1)), "c": "1"}]}
        payload = ({"omega": form, "phi": PHI0.to_json()} if command == "pair"
                   else {**canonical_model(Fraction(1, 2)).to_json(), "L1": form})
        assert message in self.rejected(command, "--input", write_json(tmp_path, "in.json", payload))

    def test_jets_past_the_digit_limit_end_at_once(self, tmp_path):
        """A 28 KB request of 4000-digit coefficients, exponents up to 100 and 2000-digit coordinates.

        Its one record is an error, in a fresh interpreter within the timeout;
        evaluated, its jets would be integers of about 1.8 million digits.
        """
        nines = "9" * 4000
        exps = [[100, 0, 0], [0, 100, 0], [0, 0, 100], [100, 100, 100]]
        linear = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]
        components = [[{"exp": e, "c": nines}, {"exp": x, "c": "1"}] for e, x in zip(exps, linear)]
        point = [f"{str(k) * 2000}/{str(k + 2) * 1999}1" for k in (1, 3, 5)]
        path = write_json(tmp_path, "in.json", {"map": {"vars": ["x1", "x2", "x3"], "components": components},
                                                "points": [point]})
        assert 28_000 <= Path(path).stat().st_size <= 29_000
        proc = fresh_python(self.MAIN, "hypersurface", "--input", path, timeout=10)
        assert proc.returncode == 0 and proc.stderr == ""
        (rec,) = json.loads(proc.stdout)["points"]
        assert rec["error"].startswith("exact jets at (") and "would need integers of more than" in rec["error"]

    def test_values_over_distinct_denominators_past_the_digit_limit_end_at_once(self, tmp_path):
        """A cubic map over four distinct denominators at three points of one 2861-digit denominator.

        Each record is the jets error, in a fresh interpreter within the
        timeout; unrefused, each took 3 s to end in the error that a printed
        value has more than 4300 digits.
        """
        from cli_digest import CUBIC_OVER_FOUR, SHARED_DENOMINATOR_POINTS

        path = write_json(tmp_path, "in.json", {"map": CUBIC_OVER_FOUR, "points": SHARED_DENOMINATOR_POINTS})
        proc = fresh_python(self.MAIN, "hypersurface", "--input", path, timeout=10)
        assert proc.returncode == 0 and proc.stderr == ""
        records = json.loads(proc.stdout)["points"]
        assert len(records) == 3
        assert all(rec["error"].startswith("exact jets at (") and rec["error"].endswith(
            f"would need integers of more than {MAX_JET_DIGITS} digits") for rec in records)


def test_output_digest_is_pinned(capsys):
    """The CLI's output on the 540 benchmark requests and on the edge requests is byte-identical to the pinned digests.

    ``tests/cli_digest.py`` builds the first requests from
    ``perfbench/inputs.py``, which this test only reads, and the edge requests
    itself, and hashes exit codes, stdout and stderr in order.  A declared
    output change re-pins the digests here.
    """
    import cli_digest

    assert cli_digest.main() == 0
    assert capsys.readouterr().out == (
        "540 requests sha256 5baeeb1530e0425b18a1a5a09993a23ec96e5e1cc77ec3d781a028d0fd82a68d\n"
        "38 edge requests sha256 29ce75c81adfab80583f9169d4aa889dc03877f2a1b446ce2c9c33b5c27f8462\n"
    )
