"""The CLI's JSON numbers and indices: one rule at every site, and a fuzz of ``cli.main``.

Every number a request carries (a 2-form coefficient in ``pair``,
``splitting`` and ``--epsilon``, a polynomial coefficient, a point
coordinate, a curvature value) and every index (a dimension, degree, term
index or exponent) is read by ``pathgeom.scalars``.  A value outside the rule
is malformed input: exit 1 and one ``error:`` line, at once.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeom import OMEGA0, PHI0, MultiVector, canonical_model, heisenberg_model, sphere_chart_model
from pathgeom.cli import MAX_NESTING, main
from pathgeom.polynomials import Poly


def call(argv, payload):
    """``main(argv)`` with ``payload`` as JSON on stdin: (exit code, stdout, stderr, seconds)."""
    return call_text(argv, json.dumps(payload))


def call_text(argv, text):
    """``main(argv)`` with ``text`` on stdin: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def pair_payload():
    return {"omega": OMEGA0.to_json(), "phi": PHI0.to_json()}


def hypersurface_payload():
    return {"map": heisenberg_model().to_json(), "points": [["1/7", "1/2", "1/3"]]}


def eps_json(c):
    return {"dim": 4, "degree": 4, "terms": [{"idx": [1, 2, 3, 4], "c": c}]}


def number_site(site, value):
    """(argv, payload) with ``value`` at one place a number is read."""
    if site == "pair-c":
        payload = pair_payload()
        payload["omega"]["terms"][0]["c"] = value
        return ["pair"], payload
    if site == "splitting-c":
        payload = canonical_model(1).to_json()
        payload["L1"]["terms"][0]["c"] = value
        return ["splitting"], payload
    if site == "epsilon-c":
        return ["--epsilon", json.dumps(eps_json(value)), "pair"], pair_payload()
    payload = hypersurface_payload()
    if site == "poly-c":
        payload["map"]["components"][3][0]["c"] = value
        return ["hypersurface"], payload
    if site == "point":
        payload["points"][0][1] = value
        return ["hypersurface"], payload
    assert site == "curvature"
    return ["eds"], {"samples": [{"W1": value, "W2": "2", "F1": "3", "F2": "4"}]}


#: a valid value at each place an index is read
VALID_INDEX = {"dim": 4, "degree": 2, "idx": 1, "exp": 2}


def index_site(site, value):
    """(argv, payload) with ``value`` at one place an index is read."""
    if site == "exp":
        payload = hypersurface_payload()
        exp = payload["map"]["components"][3][0]["exp"]
        exp[exp.index(2)] = value
        return ["hypersurface"], payload
    payload = pair_payload()
    omega = payload["omega"]
    if site == "idx":
        omega["terms"][0]["idx"][0] = value
    else:
        omega[site] = value
    return ["pair"], payload


NUMBER_SITES = ["pair-c", "splitting-c", "epsilon-c", "poly-c", "point", "curvature"]


def assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("value", ["1e9999999", True, [1], "1/0"], ids=["huge-decimal", "bool", "list", "zero-denominator"])
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_bad_number_is_one_error_line_at_once(site, value):
    code, out, err, seconds = call(*number_site(site, value))
    assert_one_error_line(code, out, err)
    assert seconds < 1


@pytest.mark.parametrize("value", [1.5, True, "4"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("site", VALID_INDEX)
def test_bad_index_is_one_error_line(site, value):
    code, out, err, _ = call(*index_site(site, value))
    assert_one_error_line(code, out, err)
    assert "must be integers" in err


@pytest.mark.parametrize("site", VALID_INDEX)
def test_integral_float_index_reads_as_its_int(site):
    """``"idx": [1.0, 3]`` is the term e¹∧e³, as ``[1, 3]`` is; likewise dim 4.0, degree 2.0, exponent 2.0."""
    expected = call(*index_site(site, VALID_INDEX[site]))[:3]
    assert expected[0] == 0
    assert call(*index_site(site, float(VALID_INDEX[site])))[:3] == expected


def test_float_poly_coefficient_reads_as_its_decimal():
    """A polynomial coefficient 0.1 is 1/10, as a point coordinate 0.1 already is."""
    assert Poly.from_json([{"exp": [1, 0, 0], "c": 0.1}], 3).terms == {(1, 0, 0): Fraction(1, 10)}
    as_float, as_text = hypersurface_payload(), hypersurface_payload()
    as_float["map"]["components"][3][0]["c"] = 0.1
    as_text["map"]["components"][3][0]["c"] = "1/10"
    assert call(["hypersurface"], as_float)[:3] == call(["hypersurface"], as_text)[:3]


@pytest.mark.parametrize("points", [["123"], "102", [["1", "2", "3"], "456"], {"0": [1, 2, 3]}, 7, None],
                         ids=["string-point", "string", "one-string-point", "object", "number", "null"])
def test_points_must_be_an_array_of_arrays(points):
    """A string is not a point: its characters would otherwise be read as coordinates."""
    payload = hypersurface_payload()
    payload["points"] = points
    code, out, err, _ = call(["hypersurface"], payload)
    assert_one_error_line(code, out, err)
    assert err.startswith("error: malformed hypersurface input: ")


def test_missing_points_is_an_empty_report():
    payload = hypersurface_payload()
    del payload["points"]
    assert call(["hypersurface"], payload)[:3] == (0, '{\n  "points": []\n}\n', "")


@pytest.mark.parametrize("payload", [
    {"samples": {"W1": 1}}, {"samples": "abc"}, {"W1": 1, "W2": 2, "F1": 3, "F2": 4},
    {"samples": [1]}, {"samples": [[1, 2, 3, 4]]}, 5, None, {},
], ids=["samples-object", "samples-string", "bare-sample", "number-sample", "array-sample", "number", "null", "no-samples"])
def test_eds_samples_must_be_an_array_of_objects(payload):
    """A sample is an object, in an array given bare or under ``"samples"``; anything else is one error line.

    An object without ``"samples"`` is refused too, where ``hypersurface`` reads a missing ``"points"`` as
    none: an object holding samples would otherwise be taken for one bare sample.
    """
    code, out, err, _ = call(["eds"], payload)
    assert_one_error_line(code, out, err)
    assert err == "error: malformed curvature samples: samples must be an array of objects\n"


@pytest.mark.parametrize("path", ["/nonexistent/samples.json", "-"], ids=["missing-file", "stdin"])
def test_eds_input_and_samples_exclude_each_other(path):
    """``eds`` either reads its samples or draws them: given both, it reads neither and exits 1."""
    code, out, err, _ = call(["eds", "--input", path, "--samples", "0"], {"samples": []})
    assert_one_error_line(code, out, err)
    assert err == "error: eds reads --input or draws --samples, not both\n"
    assert call(["eds", "--samples", "0"], None)[:3] == (0, '{\n  "samples": [],\n  "all_pass": true\n}\n', "")


def _edited(data, key, value=None):
    """A copy of the JSON ``data`` with ``key`` set to ``value``, or deleted when ``value`` is None."""
    data = json.loads(json.dumps(data))
    if value is None:
        del data[key]
    else:
        data[key] = value
    return data


#: (argv, payload, the error line) for a value of the wrong shape, or a missing key, at each reader of JSON
SHAPE_ERRORS = {
    "pair-no-phi": (["pair"], {"omega": OMEGA0.to_json()},
                    "malformed 2-form 'phi': the form must be a JSON object, not null"),
    "pair-phi-list": (["pair"], {"omega": OMEGA0.to_json(), "phi": [1]},
                      "malformed 2-form 'phi': the form must be a JSON object, not list"),
    "pair-terms-number": (["pair"], {"omega": OMEGA0.to_json(), "phi": _edited(PHI0.to_json(), "terms", 5)},
                          "malformed 2-form 'phi': the terms of the form must be a JSON array, not int"),
    "pair-term-without-c": (["pair"], {"omega": OMEGA0.to_json(), "phi": _edited(PHI0.to_json(), "terms", [{"idx": [1, 4]}])},
                            "malformed 2-form 'phi': a term of the form has no key 'c'"),
    "splitting-epsilon-number": (["splitting"], _edited(canonical_model(1).to_json(), "epsilon", 5),
                                 "malformed splitting: 'epsilon' must be a JSON object, not int"),
    "splitting-no-L2": (["splitting"], _edited(canonical_model(1).to_json(), "L2"),
                        "malformed splitting: a splitting has no key 'L2'"),
    "epsilon-list": (["--epsilon", "[1]", "pair"], pair_payload(), "--epsilon must be a JSON object, not list"),
    "epsilon-not-json": (["--epsilon", "nope", "pair"], pair_payload(),
                         "--epsilon expects a JSON volume form: Expecting value: line 1 column 1 (char 0)"),
    "hypersurface-number-components": (
        ["hypersurface"], {"map": _edited(heisenberg_model().to_json(), "components", [1, 2, 3, 4]), "points": []},
        "malformed hypersurface input: a polynomial must be a JSON array, not int"),
    "hypersurface-no-map": (["hypersurface"], {"points": []},
                            "malformed hypersurface input: map must be a JSON object, not null"),
}


@pytest.mark.parametrize("argv, payload, line", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS)
def test_a_shape_error_names_the_shape_or_the_key(argv, payload, line):
    assert call(argv, payload)[:3] == (1, "", f"error: {line}\n")


def test_omega_of_another_degree_is_refused():
    payload = {"omega": MultiVector.basis(4, (1, 2, 3)).to_json(), "phi": PHI0.to_json()}
    assert call(["pair"], payload)[:3] == (1, "", "error: 'omega' must be a 2-form on the 4-space\n")


def test_splitting_without_epsilon_takes_the_option():
    """``--epsilon`` applies to a splitting that names no ε of its own: −e¹²³⁴ flips the model's pairing."""
    payload = _edited(canonical_model(Fraction(1, 2)).to_json(), "epsilon")
    code, out, err, _ = call(["--epsilon", json.dumps(eps_json(-1)), "splitting"], payload)
    assert (code, err) == (0, "")
    assert json.loads(out)["epsilon_flipped"] is True
    assert json.loads(call(["splitting"], payload)[1])["epsilon_flipped"] is False


def test_map_of_three_components_is_refused():
    u = heisenberg_model().to_json()
    del u["components"][3]
    assert call(["hypersurface"], {"map": u, "points": []})[:3] == (
        1, "", "error: malformed hypersurface input: ParamMap needs exactly four polynomial or rational-function "
               "components\n")


def test_residual_beyond_tol_is_refused():
    """ω = 3ω₀, φ = 2φ₀ + ω₀/3 + e¹²/5 reconstructs to one rounding, which ``--tol 1e-300`` does not allow."""
    phi = PHI0 * 2 + OMEGA0 * Fraction(1, 3) + MultiVector.basis(4, (1, 2)) * Fraction(1, 5)
    payload = {"omega": (OMEGA0 * 3).to_json(), "phi": phi.to_json()}
    assert call(["pair"], payload)[0] == 0
    assert call(["--tol", "1e-300", "pair"], payload)[:3] == (
        1, "", "error: normal-form reconstruction residual 2.776e-17 exceeds tolerance\n")


@pytest.mark.parametrize("omega_scale, phi_scale, code", [
    (Fraction(10) ** 155, 1, 0), (Fraction(10) ** -300, 1, 0), (Fraction(10) ** 2000, 1, 1), (1, Fraction(10) ** -2000, 1),
    (Fraction(10) ** -337, Fraction(10) ** -63, 1), (Fraction(10) ** 150, Fraction(10) ** -170, 1),
], ids=["1e155", "1e-300", "1e2000", "phi-1e-2000", "below-normal-coefficients", "below-normal-kappa"])
def test_pair_near_the_float_range(omega_scale, phi_scale, code):
    """A normal form in floats is printed whatever the size of its intermediates; one beyond floats is one line."""
    payload = {"omega": (OMEGA0 * omega_scale).to_json(), "phi": (PHI0 * phi_scale).to_json()}
    got, out, err, _ = call(["pair"], payload)
    if code == 0:
        assert (got, err) == (0, "")
        assert json.loads(out)["reconstruction_residual"] <= 1e-9
    else:
        assert_one_error_line(got, out, err)
        assert "float range" in err


def nested(depth: int) -> str:
    """Arrays nested ``depth`` deep around 0."""
    return "[" * depth + "0" + "]" * depth


#: the end of the error line for JSON nested past ``MAX_NESTING``
NESTED_PAST_THE_LIMIT = f"JSON arrays and objects nested more than {MAX_NESTING} deep are refused"


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 100_000])
@pytest.mark.parametrize("command", ["pair", "splitting", "hypersurface", "eds"])
def test_input_nested_past_the_limit_is_one_line_naming_it(command, depth):
    """Past the limit, and past what Python's JSON reader reads, the line is the same."""
    code, out, err, _ = call_text([command], nested(depth))
    assert (code, out, err) == (1, "", f"error: cannot read input: {NESTED_PAST_THE_LIMIT}\n")


@pytest.mark.parametrize("command", ["pair", "splitting", "hypersurface", "eds"])
def test_input_nested_to_the_limit_is_read(command):
    """At the limit the value is read, and refused for its shape."""
    code, out, err, _ = call_text([command], nested(MAX_NESTING))
    assert_one_error_line(code, out, err)
    assert "nested" not in err


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_epsilon_nested_past_the_limit_is_one_line_naming_it(depth):
    code, out, err, _ = call(["--epsilon", nested(depth), "pair"], pair_payload())
    assert (code, out, err) == (1, "", f"error: --epsilon expects a JSON volume form: {NESTED_PAST_THE_LIMIT}\n")


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(MAX_NESTING - 3, MAX_NESTING), st.text(alphabet='[]{}"\\ ,:a', max_size=12))
def test_only_brackets_outside_strings_nest(depth, text):
    """A string of brackets, quotes and backslashes adds no depth, as a key, a first value or one after a comma."""
    doc = "[" * depth + json.dumps({text: [text, text]}) + "]" * depth
    code, out, err, _ = call_text(["pair"], doc)
    assert_one_error_line(code, out, err)
    assert ("nested more than" in err) == (depth + 2 > MAX_NESTING)


# -- fuzz ------------------------------------------------------------------------

FUZZ_BASES = {
    "pair": (["pair"], {"omega": (OMEGA0 + PHI0 * Fraction(1, 3)).to_json(), "phi": (PHI0 * 0.5).to_json()}),
    "splitting": (["splitting"], canonical_model(Fraction(1, 2)).to_json()),
    "hypersurface": (["hypersurface"], {"map": sphere_chart_model().to_json(),
                                        "points": [["1/2", "1/3", "0"], [1, 0.5, 2]]}),
    "eds": (["eds"], {"samples": [{"W1": "1/2", "W2": 2, "F1": 0.5, "F2": "-3"}]}),
    "epsilon": (["pair"], eps_json("2")),
    "pair-nested": (["pair"], {**pair_payload(), "note": json.loads(nested(MAX_NESTING + 5))}),
    "pair-below-normal": (["pair"], {"omega": (OMEGA0 * Fraction(10) ** -337).to_json(),
                                     "phi": (PHI0 * Fraction(10) ** -63).to_json()}),
}

#: what a number or an index, or any other node, is replaced by
MUTANTS = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["1e9999999", "-1e-9999999", "1e4300", "1e-4300", "9" * 5000, "1/0", "0.1",
                     "1_0", "nan", "inf", "", "abc", "4", "1.5", "-7/3"]),
    st.text(max_size=6),
    st.lists(st.integers(0, 4), max_size=3),
    st.just({}),
)


def node_paths(node, path=()):
    """The key path of every node below the root."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


#: every key of the input schemas: an error line that ends in one of them, quoted, names a Python KeyError
SCHEMA_KEYS = ("omega", "phi", "dim", "degree", "terms", "idx", "c", "L1", "L2", "epsilon", "map", "components",
               "type", "num", "den", "exp", "vars", "points", "samples", "W1", "W2", "F1", "F2")


def assert_no_python_internals(err):
    """The line names the shape expected or the key missing, not a Python exception's wording."""
    line = err.rstrip("\n")
    assert not any(s in line for s in ("object is not", "indices must be", "NoneType")), line
    assert not line.startswith("error: Expecting value"), line
    assert not any(line.endswith(f": {key!r}") for key in SCHEMA_KEYS), line


def mutate(payload, path, value):
    *head, last = path
    node = payload
    for key in head:
        node = node[key]
    node[last] = value


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(sorted(FUZZ_BASES)), st.lists(st.tuples(st.integers(0, 10**6), MUTANTS), min_size=1, max_size=3))
def test_fuzzed_request_keeps_the_exit_contract(command, mutations):
    """Exit 0, 1 or 2; JSON on stdout for 0 and 2; for 1 one ``error:`` line free of Python internals; no long run."""
    argv, base = FUZZ_BASES[command]
    payload = json.loads(json.dumps(base))
    for pick, value in mutations:
        paths = list(node_paths(payload))
        if paths:
            mutate(payload, paths[pick % len(paths)], value)
    if command == "epsilon":
        argv = ["--epsilon", json.dumps(payload), "pair"]
        payload = FUZZ_BASES["pair"][1]
    code, out, err, seconds = call(argv, payload)
    assert code in (0, 1, 2)
    if code == 1:
        assert_one_error_line(code, out, err)
        assert_no_python_internals(err)
    else:
        json.loads(out)
    assert seconds < 2
