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

from pathgeom import OMEGA0, PHI0, canonical_model, heisenberg_model, sphere_chart_model
from pathgeom.cli import main
from pathgeom.polynomials import Poly


def call(argv, payload):
    """``main(argv)`` with ``payload`` as JSON on stdin: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))), redirect_stdout(out), redirect_stderr(err):
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


# -- fuzz ------------------------------------------------------------------------

FUZZ_BASES = {
    "pair": (["pair"], {"omega": (OMEGA0 + PHI0 * Fraction(1, 3)).to_json(), "phi": (PHI0 * 0.5).to_json()}),
    "splitting": (["splitting"], canonical_model(Fraction(1, 2)).to_json()),
    "hypersurface": (["hypersurface"], {"map": sphere_chart_model().to_json(),
                                        "points": [["1/2", "1/3", "0"], [1, 0.5, 2]]}),
    "eds": (["eds"], {"samples": [{"W1": "1/2", "W2": 2, "F1": 0.5, "F2": "-3"}]}),
    "epsilon": (["pair"], eps_json("2")),
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


def mutate(payload, path, value):
    *head, last = path
    node = payload
    for key in head:
        node = node[key]
    node[last] = value


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(sorted(FUZZ_BASES)), st.lists(st.tuples(st.integers(0, 10**6), MUTANTS), min_size=1, max_size=3))
def test_fuzzed_request_keeps_the_exit_contract(command, mutations):
    """Exit 0, 1 or 2; JSON on stdout for 0 and 2; one ``error:`` line for 1; no exception; no long run."""
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
    else:
        json.loads(out)
    assert seconds < 2
