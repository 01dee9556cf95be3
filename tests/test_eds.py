import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeom import MultiVector, evaluate, wedge
from pathgeom.eds import (
    DIM,
    ConstantIdeal,
    CurvatureSample,
    Flag,
    characters,
    codim_at,
    complement_frame,
    condition_forms,
    ideal_at,
    independence_check,
    is_integral_element,
    linearized_conditions,
    omega0_model,
    phi0_model,
    polar_space,
    reference_flag,
    sample_curvatures,
    structure_d,
    theta,
    verify_involutivity,
    zeta_forms,
    frame_vector,
)
from pathgeom.linalg import rank

from conftest import count_calls_everywhere, rand_fraction
from oracles import (
    cartan_test_oracle,
    fraction_nullspace,
    greedy_complement_frame,
    in_span,
    polar_rows_oracle,
    random_integral_flag,
    second_order_probe,
    slot_of,
)


MV = MultiVector


def rand_curvature(rng):
    return CurvatureSample(*(rand_fraction(rng) for _ in range(4)))


class TestStructureEquations:
    def test_dtheta20_expansion(self, rng):
        # curvature-free row: d(t20) = 2 t00^t20 + t11^t20 + t10^t21
        d = structure_d("t20", rand_curvature(rng))
        expected = MV(DIM, 2, {(1, 7): Fraction(2), (5, 7): Fraction(1), (4, 8): Fraction(1)})
        assert d == expected

    def test_dtheta01_carries_w1(self, rng):
        c = rand_curvature(rng)
        d = structure_d("t01", c)
        assert d.coefficient((slot_of("t10"), slot_of("t20"))) == c.w1

    def test_dtheta02_carries_w2_and_f2(self, rng):
        c = rand_curvature(rng)
        d = structure_d("t02", c)
        assert d.coefficient((slot_of("t10"), slot_of("t20"))) == c.w2
        assert d.coefficient((slot_of("t21"), slot_of("t20"))) == c.f2

    def test_dtheta12_carries_f1(self, rng):
        c = rand_curvature(rng)
        d = structure_d("t12", c)
        assert d.coefficient((slot_of("t21"), slot_of("t20"))) == c.f1

    def test_coordinate_differentials_vanish(self, rng):
        c = rand_curvature(rng)
        for label in ("dx1", "dx2", "dx3", "dx4"):
            assert structure_d(label, c).is_zero

    def test_unknown_component_rejected(self, rng):
        with pytest.raises(ValueError):
            structure_d("t22x", rand_curvature(rng))

    def test_trace_elimination(self):
        t22 = theta(2, 2)
        assert t22.coefficient((slot_of("t00"),)) == -1
        assert t22.coefficient((slot_of("t11"),)) == -1

    def test_coframe_index_map_total_and_involutive(self):
        from pathgeom.eds import COFRAME_LABELS

        assert len(COFRAME_LABELS) == DIM
        seen = set()
        for i in range(3):
            for j in range(3):
                if (i, j) == (2, 2):
                    continue
                label = f"t{i}{j}"
                slot = slot_of(label)
                assert COFRAME_LABELS[slot - 1] == label  # slot -> label -> slot
                assert theta(i, j).coefficient((slot,)) == 1
                seen.add(slot)
        assert seen == set(range(1, 9))
        assert [slot_of(f"dx{k}") for k in range(1, 5)] == [9, 10, 11, 12]


class TestIdeal:
    def test_generator_coefficients(self, rng):
        ideal = ideal_at(rand_curvature(rng))
        assert ideal.generators[0].coefficient((slot_of("t20"), slot_of("t10"))) == 1
        assert ideal.generators[0].coefficient((slot_of("dx1"), slot_of("dx3"))) == -1
        assert ideal.generators[1].coefficient((slot_of("t20"), slot_of("t21"))) == 1
        assert ideal.generators[1].coefficient((slot_of("dx2"), slot_of("dx3"))) == -1

    def test_differentials_frozen_and_curvature_free(self, rng):
        # dchi1 = -3 t00^t10^t20 and dchi2 = 3 (t00+t11)^t20^t21,
        # independent of the curvature values
        expected1 = MV(DIM, 3, {(1, 4, 7): Fraction(-3)})
        expected2 = MV(DIM, 3, {(1, 7, 8): Fraction(3), (5, 7, 8): Fraction(3)})
        flat = ideal_at(CurvatureSample(0, 0, 0, 0))
        for _ in range(5):
            ideal = ideal_at(rand_curvature(rng))
            assert ideal.differentials[0] == expected1
            assert ideal.differentials[1] == expected2
            # Θ¹₀ = Θ²₀ = Θ²₁ = 0: every generator and differential is the flat one, term by term
            for forms in ("generators", "differentials"):
                for form, flat_form in zip(getattr(ideal, forms), getattr(flat, forms), strict=True):
                    assert (form.dim, form.degree) == (flat_form.dim, flat_form.degree)
                    assert form.terms == flat_form.terms

    def test_zero_curvature_gives_maurer_cartan_cubics(self):
        zero = CurvatureSample(0, 0, 0, 0)
        ideal = ideal_at(zero)
        t10, t20 = theta(1, 0), theta(2, 0)
        dt20 = structure_d("t20", zero)
        dt10 = structure_d("t10", zero)
        assert ideal.differentials[0] == wedge(dt20, t10) - wedge(t20, dt10)

    def test_model_forms(self):
        assert omega0_model().coefficient((9, 11)) == 1
        assert omega0_model().coefficient((10, 12)) == -1
        assert phi0_model().coefficient((9, 12)) == 1
        assert phi0_model().coefficient((10, 11)) == 1


class TestFlag:
    def test_reference_flag_components(self):
        flag = reference_flag()
        v1, v2, v3 = flag.vectors
        assert v1[slot_of("t10") - 1] == 1 and v1[slot_of("dx4") - 1] == 1
        assert v2[slot_of("t21") - 1] == -1 and v2[slot_of("dx1") - 1] == 1
        assert v3[slot_of("t11") - 1] == 1 and v3[slot_of("dx1") - 1] == 1

    def test_dependent_vectors_rejected(self):
        v = reference_flag().vectors[0]
        with pytest.raises(ValueError):
            Flag((v, v))


class TestIntegrality:
    def test_reference_flag_is_integral_for_sampled_curvature(self, rng):
        for _ in range(10):
            ideal = ideal_at(rand_curvature(rng))
            assert is_integral_element(reference_flag().vectors, ideal)

    def test_coordinate_plane_is_not_integral(self, rng):
        ideal = ideal_at(rand_curvature(rng))
        e_x1 = frame_vector(slot_of("dx1"))
        e_x3 = frame_vector(slot_of("dx3"))
        assert evaluate(ideal.generators[0], [list(e_x1), list(e_x3)]) == -1
        assert not is_integral_element([e_x1, e_x3], ideal)

    def test_empty_element_is_integral(self, rng):
        assert is_integral_element([], ideal_at(rand_curvature(rng)))

    @pytest.mark.parametrize("length", [11, 13])
    def test_vectors_of_another_dimension_are_refused(self, rng, length):
        ideal = ideal_at(rand_curvature(rng))
        vecs = [[rand_fraction(rng) for _ in range(length)] for _ in range(3)]
        for call in (lambda: is_integral_element(vecs[:1], ideal), lambda: is_integral_element(vecs, ideal),
                     lambda: polar_space(vecs[:1], ideal), lambda: independence_check(vecs)):
            with pytest.raises(ValueError, match="wrong dimension"):
                call()

    def test_wedge_with_one_form_vanishes_on_integral_elements(self, rng):
        # chi^lambda automatically vanishes wherever chi does
        ideal = ideal_at(rand_curvature(rng))
        vecs = [list(v) for v in reference_flag().vectors]
        for _ in range(10):
            lam = MV.from_terms(DIM, [((rng.randint(1, DIM),), rand_fraction(rng))], degree=1)
            for chi in ideal.generators:
                assert evaluate(wedge(chi, lam), vecs) == 0


class TestPolarSpaces:
    def test_codimension_ladder(self, rng):
        ideal = ideal_at(rand_curvature(rng))
        v1, v2, _ = reference_flag().vectors
        h0, c0 = polar_space([], ideal)
        h1, c1 = polar_space([v1], ideal)
        h2, c2 = polar_space([v1, v2], ideal)
        assert (c0, c1, c2) == (0, 2, 6)
        assert len(h0) == 12 and len(h1) == 10 and len(h2) == 6

    def test_polar_spaces_nested(self, rng):
        ideal = ideal_at(rand_curvature(rng))
        v1, v2, _ = reference_flag().vectors
        h0, _ = polar_space([], ideal)
        h1, _ = polar_space([v1], ideal)
        h2, _ = polar_space([v1, v2], ideal)
        for v in h1:
            assert in_span(h0, v)
        for v in h2:
            assert in_span(h1, v)

    def test_non_integral_input_rejected(self, rng):
        ideal = ideal_at(rand_curvature(rng))
        with pytest.raises(ValueError):
            polar_space([frame_vector(slot_of("dx1")), frame_vector(slot_of("dx3"))], ideal)


class TestCharacters:
    def test_expected_characters(self, rng):
        for _ in range(10):
            ideal = ideal_at(rand_curvature(rng))
            ch = characters(reference_flag(), ideal)
            assert ch.as_tuple() == (0, 2, 4, 3)
            assert ch.codim_bound == 8
            assert ch.codim_actual == 8
            assert ch.involutive

    def test_grassmannian_count_identity(self, rng):
        ch = characters(reference_flag(), ideal_at(rand_curvature(rng)))
        s0, s1, s2, s3 = ch.as_tuple()
        assert s1 + 2 * s2 + 3 * s3 == 19 == 27 - 8

    def test_zero_curvature_same_characters(self):
        ch = characters(reference_flag(), ideal_at(CurvatureSample(0, 0, 0, 0)))
        assert ch.as_tuple() == (0, 2, 4, 3)

    def test_non_integral_elements_are_refused_by_name(self):
        """A non-integral E² is refused by its polar space and by ``characters``; one that fails only at E³ by ``codim_at``."""
        flag = reference_flag()
        vecs = flag.vectors
        below = ConstantIdeal((wedge(theta(1, 0), theta(2, 0)),), ())
        top = ConstantIdeal((wedge(theta(1, 1), MV.basis(DIM, (slot_of("dx4"),))),), ())
        assert not is_integral_element(vecs[:2], below)
        assert is_integral_element(vecs[:2], top) and not is_integral_element(vecs, top)
        polar, refused = "polar space of a non-integral element", "flag is not integral"
        for call, message in ((lambda: polar_space(vecs[:2], below), polar), (lambda: characters(flag, below), polar),
                              (lambda: codim_at(flag, below), refused), (lambda: polar_space(vecs, top), polar),
                              (lambda: characters(flag, top), refused), (lambda: codim_at(flag, top), refused)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    def test_reduced_ideal_changes_characters(self, rng):
        full = ideal_at(rand_curvature(rng))
        reduced = ConstantIdeal((full.generators[0],), (full.differentials[0],))
        ch = characters(reference_flag(), reduced)
        assert ch.as_tuple() != (0, 2, 4, 3)


class TestCodim:
    def test_rank_eight_and_nineteen_free_parameters(self, rng):
        res = codim_at(reference_flag(), ideal_at(rand_curvature(rng)))
        assert res.rank == 8
        assert res.free_parameters == 19
        assert len(res.pivot_columns) == 8
        assert len(res.complement_slots) == 9

    def test_dropping_a_condition_lowers_rank(self, rng):
        ideal = ideal_at(rand_curvature(rng))
        forms = condition_forms(ideal)
        assert len(forms) == 8
        flag = reference_flag()
        jac = linearized_conditions(flag, forms[:-1], complement_frame(flag))
        assert rank(jac) <= 7

    def test_linearization_matches_direct_evaluation(self, rng):
        # contraction-based rows agree with literal per-entry evaluation, also on rational
        # flags and forms, whose denominators the integer arithmetic behind the rows undoes
        ideal = ideal_at(rand_curvature(rng))
        cases = [(reference_flag(), condition_forms(ideal))] + [
            (_random_flag("rational", rng, ideal), [form * rand_fraction(rng, 1, 4, 9) for form in condition_forms(ideal)])
            for _ in range(3)]
        for flag, forms in cases:
            slots = complement_frame(flag)
            jac = linearized_conditions(flag, forms, slots)
            vecs = [list(v) for v in flag.vectors]
            for r, form in enumerate(forms):
                for a in range(3):
                    for m, s in enumerate(slots):
                        triple = list(vecs)
                        triple[a] = list(frame_vector(s))
                        assert jac[r][a * len(slots) + m] == evaluate(form, triple)

    def test_complement_frame_matches_greedy_elimination(self, rng):
        ideal = ideal_at(rand_curvature(rng))
        flags = [reference_flag()] + [random_integral_flag(rng, ideal) for _ in range(10)]
        while len(flags) < 60:
            # sparse vectors, so that the flag shares pivots with the frame vectors
            k = rng.randint(1, 3)
            vecs = [[Fraction(rng.choice((-1, 0, 0, 0, 0, 1, 2))) for _ in range(DIM)] for _ in range(k)]
            if rank(vecs) == k:
                flags.append(Flag(tuple(tuple(v) for v in vecs)))
        for flag in flags:
            assert complement_frame(flag) == greedy_complement_frame(flag)

    def test_non_integral_flag_rejected(self, rng):
        bad = Flag((frame_vector(slot_of("dx1")), frame_vector(slot_of("dx2")), frame_vector(slot_of("dx3"))))
        with pytest.raises(ValueError, match="integral"):
            codim_at(bad, ideal_at(rand_curvature(rng)))

    def test_independence_failure_rejected(self, rng):
        # integral but zeta vanishes: the slots the ideal never touches
        degenerate = Flag((frame_vector(slot_of("t01")), frame_vector(slot_of("t02")), frame_vector(slot_of("t12"))))
        ideal = ideal_at(rand_curvature(rng))
        assert is_integral_element(degenerate.vectors, ideal)
        with pytest.raises(ValueError, match="independence"):
            codim_at(degenerate, ideal)


class TestIndependence:
    def test_reference_flag_zeta_is_one(self):
        z1, z2, z3 = zeta_forms()
        zeta = wedge(wedge(z1, z2), z3)
        assert evaluate(zeta, [list(v) for v in reference_flag().vectors]) == 1
        assert independence_check(reference_flag().vectors)

    def test_coordinate_span_fails(self):
        vecs = [frame_vector(slot_of(f"dx{i}")) for i in (1, 2, 3)]
        assert not independence_check(vecs)

    def test_dx_components_ignored(self, rng):
        flag = reference_flag()
        shifted = []
        for v in flag.vectors:
            w = list(v)
            w[slot_of("dx2") - 1] += rand_fraction(rng)
            shifted.append(tuple(w))
        assert independence_check(shifted) == independence_check(flag.vectors)


class TestVerification:
    def test_report_entry_schema(self, rng):
        report = verify_involutivity([rand_curvature(rng)])
        entry = report.entries[0]
        assert set(entry) >= {"W1", "W2", "F1", "F2", "integral", "zeta_nonzero", "characters", "codim", "involutive"}
        assert entry["characters"] == [0, 2, 4, 3]
        assert entry["codim"] == 8
        assert entry["involutive"] is True
        assert report.all_pass

    def test_empty_sample_list(self):
        report = verify_involutivity([])
        assert report.entries == () and report.all_pass

    def test_deterministic_sampling(self):
        a = sample_curvatures(5, seed=7)
        b = sample_curvatures(5, seed=7)
        assert a == b
        assert sample_curvatures(5, seed=8) != a

    def test_runs_are_bit_identical(self, rng):
        samples = [rand_curvature(rng) for _ in range(3)]
        assert verify_involutivity(samples) == verify_involutivity(samples)

    def test_refused_and_failing_ideals_are_entries(self, rng):
        """A flag the test refuses gives integrality and ζ read on their own; an ideal that fails it, its figures."""
        from pathgeom.eds import _verdict

        refused = {"integral": False, "zeta_nonzero": True, "pass": False}
        for generator in (omega0_model(), wedge(theta(1, 0), theta(2, 0)),
                          wedge(theta(1, 1), MV.basis(DIM, (slot_of("dx4"),)))):
            assert _verdict(ConstantIdeal((generator,), ())) == refused
        full = ideal_at(rand_curvature(rng))
        assert _verdict(ConstantIdeal(full.generators[:1], full.differentials[:1])) == {
            "integral": True, "zeta_nonzero": True, "characters": [0, 1, 2, 6], "codim": 4, "codim_bound": 4,
            "involutive": True, "pass": False}

    def test_curvature_json_round_trip(self):
        c = CurvatureSample(Fraction(1, 3), Fraction(-2), Fraction(7, 5), Fraction(0))
        assert CurvatureSample.from_json(c.to_json()) == c

    def test_unwritable_curvature_is_refused_when_built(self):
        with pytest.raises(ValueError, match="cannot be written"):
            CurvatureSample(Fraction(1, 10**4300), 0, 0, 0)


class TestVerdictReuse:
    @staticmethod
    def count_calls(monkeypatch, name, module="eds"):
        """Count the calls of ``pathgeom.<module>.<name>`` made through the module attribute."""
        import importlib

        owner = importlib.import_module(f"pathgeom.{module}")
        original = getattr(owner, name)
        counter = {"calls": 0}

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return counter

    def test_one_verdict_computes_each_quantity_once(self, rng, monkeypatch):
        """Each element's polar rows are built once, ζ is read once, and the linearization stays in integers.

        ``eds`` calls ``linalg`` through its module attributes, and ``linalg``
        its own helpers through its globals, so each call below is counted.
        The flag scales its vectors to integers and echelons them once, which
        checks their independence and gives the complement frame.
        ``characters`` builds E²'s rows from those integers, whose ranks give
        c₁ and c₂, and ``codim_at`` E³'s; neither checks independence again.
        The one determinant is ζ on the flag, whose rows are the one
        ``_integer_rows`` conversion (the limit allows one more); the five
        echelons are the flag's, c₁, c₂, ζ's and the linearization's, which
        is echelonned from its integer rows, never from Fractions.
        """
        from pathgeom.eds import _verdict

        ideal = ideal_at(rand_curvature(rng))
        limits = {("eds", "_polar_rows"): 2, ("linalg", "_integer_rows"): 2, ("linalg", "echelon"): 5,
                  ("linalg", "rank"): 0, ("linalg", "det"): 1, ("linalg", "nullspace"): 0, ("linalg", "rref"): 0,
                  ("eds", "is_integral_element"): 0, ("eds", "linearized_conditions"): 0}
        counters = {key: self.count_calls(monkeypatch, key[1], key[0]) for key in limits}
        assert _verdict(ideal)["pass"]
        calls = {key: counter["calls"] for key, counter in counters.items()}
        assert all(calls[key] <= limit for key, limit in limits.items()), calls

    def test_curvature_free_ideal_runs_the_pipeline_once(self, rng, monkeypatch):
        counters = {name: self.count_calls(monkeypatch, name)
                    for name in ("ideal_at", "_verdict", "characters", "codim_at")}
        for n in (0, 1, 50):
            for counter in counters.values():
                counter["calls"] = 0
            report = verify_involutivity([rand_curvature(rng) for _ in range(n)])
            assert len(report.entries) == n and report.all_pass
            if n == 0:
                # an empty request builds no ideal and runs no verdict
                assert all(counter["calls"] == 0 for counter in counters.values())
                continue
            # the ideal does not depend on the curvature: one ideal, one verdict
            assert counters["ideal_at"]["calls"] == 1
            assert counters["_verdict"]["calls"] == 1
            assert counters["characters"]["calls"] == 1 and counters["codim_at"]["calls"] == 1

    def test_sweep_request_writes_each_value_once(self, monkeypatch, tmp_path, capsys):
        """The benchmark's 100-sample ``eds`` request writes each of its 400 values to JSON once.

        A sample writes its four values when it is read, and its report entry
        reuses those strings.  ``scalar_to_json`` is counted under every name a
        pathgeom module binds it to.
        """
        import cli_digest
        from pathgeom.cli import main

        (request,) = cli_digest.load_inputs().eds_sweep(random.Random(0))
        counter = count_calls_everywhere(monkeypatch, "scalars", "scalar_to_json")
        path = tmp_path / "in.json"
        path.write_text(request.payload)
        assert main(["eds", "--input", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["samples"]) == 100
        assert counter["calls"] == 400

    def test_cli_request_builds_one_ideal(self, monkeypatch, capsys):
        from pathgeom.cli import main

        counter = self.count_calls(monkeypatch, "ideal_at")
        assert main(["eds", "--samples", "200"]) == 0
        assert counter["calls"] == 1
        assert len(json.loads(capsys.readouterr().out)["samples"]) == 200

    def test_ideal_is_affine_in_the_curvature(self, rng):
        """The ideal at t·c + (1−t)·c′ is t·ideal(c) + (1−t)·ideal(c′).

        ``structure_d`` carries the curvature, so it is checked too, where the
        forms really move.
        """
        for _ in range(10):
            c, c2 = rand_curvature(rng), rand_curvature(rng)
            t = rand_fraction(rng, -3, 3, 7)
            mix = CurvatureSample(*(t * a + (1 - t) * b for a, b in (
                (c.w1, c2.w1), (c.w2, c2.w2), (c.f1, c2.f1), (c.f2, c2.f2))))
            at_mix, at_c, at_c2 = ideal_at(mix), ideal_at(c), ideal_at(c2)
            for forms in ("generators", "differentials"):
                for f, a, b in zip(getattr(at_mix, forms), getattr(at_c, forms), getattr(at_c2, forms)):
                    assert f.terms == (a * t + b * (1 - t)).terms
            for component in ("t01", "t02", "t12", "t20"):
                combined = structure_d(component, c) * t + structure_d(component, c2) * (1 - t)
                assert structure_d(component, mix).terms == combined.terms

    def test_repeated_samples_give_identical_entries(self, rng):
        sample = rand_curvature(rng)
        first, second = verify_involutivity([sample, sample]).entries
        assert first == second
        assert first["characters"] is not second["characters"]


def test_random_integral_flags_are_ordinary(rng):
    """Cartan's test holds at random integral flags, not only at the reference flag.

    A flag on which ζ vanishes is not an admissible element and is skipped.
    Ordinary flags are open and dense among the others, but not all of them:
    when E² falls on the closed set where its polar equations drop rank
    (c₂ = 5, characters (0, 2, 3, 4), bound 7 < codimension 8), Cartan's
    inequality is strict and the test must say so.  Every flag is one or the
    other, and most are ordinary.
    """
    ideal = ideal_at(rand_curvature(rng))
    admissible = ordinary = 0
    for _ in range(40):
        flag = random_integral_flag(rng, ideal)
        assert is_integral_element(flag.vectors, ideal)
        if not independence_check(flag.vectors):
            continue
        admissible += 1
        ch = characters(flag, ideal)
        if ch.as_tuple() == (0, 2, 4, 3):
            assert ch.codim_actual == ch.codim_bound == 8 and ch.involutive
            ordinary += 1
        else:
            assert ch.as_tuple() == (0, 2, 3, 4)
            assert ch.codim_bound == 7 < ch.codim_actual == 8 and not ch.involutive
    assert admissible >= 20 and ordinary >= 0.9 * admissible


def _cartan_test(flag, ideal) -> dict:
    """What ``eds`` reports at a flag, in the keys of ``cartan_test_oracle``; a refusal is its message."""
    def or_refusal(compute):
        try:
            return compute()
        except ValueError as exc:
            return str(exc)

    vecs = flag.vectors
    ch = or_refusal(lambda: characters(flag, ideal))
    return {
        "integral": [is_integral_element(vecs[:k], ideal) for k in range(4)],
        "zeta": independence_check(vecs),
        "polar": [or_refusal(lambda: polar_space(vecs[:k], ideal)[1]) for k in range(3)],
        "characters": ch if isinstance(ch, str) else (ch.as_tuple(), ch.codim_bound, ch.codim_actual, ch.involutive),
        "codim": or_refusal(lambda: codim_at(flag, ideal).rank),
    }


def _random_flag(kind, rng, ideal) -> Flag:
    """A flag of the given kind; the ``non-integral`` kinds are not integral, every other kind is."""
    if kind == "reference":
        return reference_flag()
    while True:
        if kind == "zeta-degenerate":
            # θ¹₀ = θ²₀ = θ²₁ = 0 kills ζ and every differential, and dx parts on one line kill ω₀ and φ₀
            d = [rng.randint(-2, 2) for _ in range(4)]
            vecs = []
            for _ in range(3):
                v = [Fraction(rng.randint(-2, 2)) if s in (1, 2, 3, 5, 6) else Fraction(0) for s in range(1, 9)]
                k = rand_fraction(rng, -2, 2, 3)
                vecs.append(v + [k * x for x in d])
        elif kind in ("non-integral", "non-integral-below"):
            vecs = [[rand_fraction(rng, -2, 2, 3) for _ in range(DIM)] for _ in range(3)]
            if kind == "non-integral-below":
                # E² is not integral, while v₃ meets every condition that involves it
                coeffs = [(rng.randint(-3, 3), b) for b in fraction_nullspace(polar_rows_oracle(vecs[:2], ideal))]
                vecs[2] = [sum(k * b[s] for k, b in coeffs) for s in range(DIM)]
        else:
            vecs = [list(v) for v in random_integral_flag(rng, ideal).vectors]
            if kind == "rational":
                # a triangular change of basis keeps every Eᵏ
                coeffs = [[rand_fraction(rng, 1, 3, 7) if i == j else rand_fraction(rng, -3, 3, 7) for j in range(i + 1)]
                          for i in range(3)]
                vecs = [[sum(c * v[s] for c, v in zip(row, vecs)) for s in range(DIM)] for row in coeffs]
            elif kind == "non-integral-top":
                vecs[2] = [rand_fraction(rng, -2, 2, 3) for _ in range(DIM)]
        if rank(vecs) == 3:
            return Flag(tuple(tuple(v) for v in vecs))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("reference", "integral", "rational", "non-integral", "non-integral-below",
                             "non-integral-top", "zeta-degenerate")),
       generators=st.sampled_from(((0, 1), (0,), (1,))),
       weights=st.sampled_from(("none", "per form", "per term")))
def test_cartan_test_matches_the_oracle(seed, kind, generators, weights):
    """Integrality, ζ, polar codimensions, characters and codimension against dense tensors and Fraction elimination.

    The ideal is the full one or reduced to one generator, its forms taken as
    they are, each times a rational, or with each term times its own rational;
    the flag is the reference flag, a random integral flag, one written in
    rational entries, a non-integral one (from E², also where v₃ meets every
    condition on it, or only at E³) or an integral one on which ζ vanishes.
    The same flag with each vector times a rational reports the same.
    """
    rng = random.Random(seed)
    full = ideal_at(rand_curvature(rng))

    def weigh(form):
        if weights == "none":
            return form
        w = rand_fraction(rng, 1, 4, 9) * rng.choice((-1, 1))
        return MV(DIM, form.degree, {idx: c * (w if weights == "per form" else rand_fraction(rng, 1, 4, 9))
                                     for idx, c in form.terms.items()})

    ideal = ConstantIdeal(tuple(weigh(full.generators[i]) for i in generators),
                          tuple(weigh(full.differentials[i]) for i in generators))
    flag = _random_flag(kind, rng, ideal)
    factors = [rand_fraction(rng, 1, 5, 11) * rng.choice((-1, 1)) for _ in flag.vectors]
    scaled = Flag(tuple(tuple(x * k for x in v) for v, k in zip(flag.vectors, factors)))
    expected = cartan_test_oracle(flag, ideal)
    assert _cartan_test(flag, ideal) == expected
    assert _cartan_test(scaled, ideal) == expected


def test_second_order_smoothness_probe(rng):
    ideal = ideal_at(rand_curvature(rng))
    probe = second_order_probe(reference_flag(), ideal, seed=3)
    assert probe["converged"]
    assert probe["rank_at_solution"] == 8
    assert probe["distance"] > 0
