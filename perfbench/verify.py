"""Output checks for benchmark requests.

:func:`check` turns one CLI result (exit code, stdout, stderr) into one
status per item: ``"ok"``, the name of a known defect, or ``"wrong: …"``.

The CLI contract every request is held to: exit 0 or 2 with strict JSON on
stdout (no ``NaN``/``Infinity``), or exit 1 with a one-line error on stderr;
never a traceback.  A known defect is a failure of that contract, or of the
expected report, that the program shows today on a named kind of input.  It
counts as a failed item, not as correct output.  Any other mismatch is
``wrong`` and makes the whole run incorrect.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Optional

from inputs import Request

#: known defects, the request kinds they occur on, and their cause
KNOWN_DEFECTS: Dict[str, tuple] = {
    "traceback": (
        ("malformed-nonobject-pair", "malformed-nonobject-splitting"),
        "a JSON array payload reaches payload.get / Splitting.from_json and raises "
        "AttributeError, which the CLI does not catch",
    ),
    "nan_output": (
        ("malformed-nan-pair",),
        "a NaN coefficient is accepted; `pair` exits 0 and prints \"ww\": nan, which is not JSON",
    ),
    "coframe_degenerate": (
        ("hypersurface-sphere",),
        "adapted_coframe_at compares the coframe volume with an absolute tolerance; "
        "far out on the sphere chart |b| ~ 1e-5 and the volume falls under it",
    ),
}

KAPPA_TOL = 1e-9
DEGREE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
EXPECTED_CHARACTERS = [0, 2, 4, 3]
EXPECTED_CODIM = 8


class Wrong(Exception):
    """An output that matches neither the expected report nor a known defect."""


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and ±Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _known(defect: str, req: Request) -> bool:
    return req.kind in KNOWN_DEFECTS[defect][0]


def check(req: Request, code: int, stdout: str, stderr: str) -> List[str]:
    """One status per item of ``req``."""
    try:
        return _check(req, code, stdout, stderr)
    except Wrong as exc:
        return [f"wrong: {exc}"] * req.items
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        # a report of the wrong shape, e.g. a list where an object belongs
        return [f"wrong: malformed report ({type(exc).__name__}: {exc})"] * req.items


def _check(req: Request, code: int, stdout: str, stderr: str) -> List[str]:
    if "Traceback" in stderr:
        if _known("traceback", req):
            return ["traceback"] * req.items
        raise Wrong(f"traceback on stderr (exit {code})")
    if len(stderr.splitlines()) > 1:
        raise Wrong("stderr has more than one line")
    if code in (0, 2):
        try:
            report = strict_json(stdout)
        except ValueError as exc:
            if _known("nan_output", req) and code == 0:
                return ["nan_output"] * req.items
            raise Wrong(f"stdout is not strict JSON: {exc}") from None
    elif code == 1:
        if stdout.strip():
            raise Wrong("exit 1 with output on stdout")
        if not stderr.startswith("error:"):
            raise Wrong("exit 1 without a one-line 'error:' message")
        report = None
    else:
        raise Wrong(f"exit code {code}")
    if code != req.expect["exit"]:
        raise Wrong(f"exit {code}, expected {req.expect['exit']}: {stderr.strip()[:200]}")
    if report is None:
        return ["ok"] * req.items
    _need(isinstance(report, dict), "report is not a JSON object")
    checker = _REPORT_CHECKS[req.command]
    return checker(req, report)


def _need(cond: bool, what: str):
    if not cond:
        raise Wrong(what)


def _number(x) -> bool:
    """A JSON number: integral floats such as 3.0 are printed, and read back, as 3."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# -- per-command report checks --------------------------------------------------


def _check_eds(req: Request, report) -> List[str]:
    samples = req.expect["samples"]
    entries = report.get("samples")
    _need(isinstance(entries, list) and len(entries) == len(samples), "eds: wrong number of entries")
    for given, entry in zip(samples, entries):
        _need(all(entry.get(k) == v for k, v in given.items()), f"eds: entry does not echo its sample {given}")
        _need(entry.get("integral") is True and entry.get("zeta_nonzero") is True, "eds: flag not integral")
        _need(entry.get("characters") == EXPECTED_CHARACTERS, f"eds: characters {entry.get('characters')}")
        _need(entry.get("codim") == EXPECTED_CODIM and entry.get("codim_bound") == EXPECTED_CODIM, "eds: codimension")
        _need(entry.get("involutive") is True and entry.get("pass") is True, "eds: sample does not pass")
    _need(report.get("all_pass") is True, "eds: all_pass is not true")
    return ["ok"] * len(samples)


def _fracs(values) -> List[Fraction]:
    return [Fraction(v) for v in values]


def _check_i_matrix(rec) -> None:
    cr = rec.get("cr")
    _need(isinstance(cr, dict) and len(cr.get("D", [])) == 2, "hypersurface: CR plane D is not 2-dimensional")
    (a, b), (c, d) = (_fracs(row) for row in cr["I"])
    _need([[a * a + b * c, a * b + b * d], [c * a + d * c, c * b + d * d]] == [[-1, 0], [0, -1]], "hypersurface: I² ≠ −Id")


def _coframe_ok(rec) -> None:
    frame = rec.get("coframe")
    _need(isinstance(frame, dict), "hypersurface: no coframe")
    for key in ("eta1", "eta2", "eta3"):
        vec = frame.get(key)
        _need(isinstance(vec, list) and len(vec) == 3 and all(_number(x) and math.isfinite(x) for x in vec), f"hypersurface: {key}")


def _check_sphere_point(req: Request, i: int, rec) -> str:
    _need(rec.get("point") == req.expect["points"][i], "hypersurface: record does not echo its point")
    if "error" in rec:
        if rec["error"] == "adapted coframe is degenerate" and req.expect["far"][i]:
            return "coframe_degenerate"
        raise Wrong(f"hypersurface: error {rec['error']!r} at {rec['point']}")
    _need(rec.get("independent") is True, "hypersurface: pullbacks not independent")
    _need(rec.get("contact") is True, f"hypersurface: not contact at {rec['point']}")
    _need(rec.get("compatible") is True, f"hypersurface: not compatible at {rec['point']}")
    _coframe_ok(rec)
    _check_i_matrix(rec)
    return "ok"


def _check_graph_point(want: dict, rec) -> str:
    _need("error" not in rec, f"hypersurface: error {rec.get('error')!r}")
    for key in ("point", "b1", "b2"):
        _need(rec.get(key) == want[key], f"hypersurface: {key} {rec.get(key)} != {want[key]}")
    _need(rec.get("P1") == want["b1"] and rec.get("P2") == want["b2"], "hypersurface: line fields are not b1, b2")
    _need(rec.get("independent") is True, "hypersurface: pullbacks not independent")
    _need(rec.get("contact") is want["contact"], f"hypersurface: contact {rec.get('contact')}, expected {want['contact']}")
    _need(rec.get("compatible") is (True if want["contact"] else None), "hypersurface: compatibility")
    _coframe_ok(rec)
    _check_i_matrix(rec)
    return "ok"


def _check_hypersurface(req: Request, report) -> List[str]:
    records = report.get("points")
    _need(isinstance(records, list) and len(records) == req.items, "hypersurface: wrong number of records")
    if req.kind == "hypersurface-sphere":
        return [_check_sphere_point(req, i, rec) for i, rec in enumerate(records)]
    if req.kind == "hypersurface-graph":
        return [_check_graph_point(w, rec) for w, rec in zip(req.expect["graph"], records)]
    rec = records[0]
    contact = req.expect["contact"]
    _need("error" not in rec, f"hypersurface: error {rec.get('error')!r}")
    _need(rec.get("contact") is contact, f"hypersurface: contact {rec.get('contact')}")
    _need(rec.get("compatible") is (True if contact else None), "hypersurface: compatibility")
    _check_i_matrix(rec)
    return ["ok"]


def _check_pair(req: Request, report) -> List[str]:
    want = req.expect
    _need(report.get("pairings") == want["pairings"], f"pair: pairings {report.get('pairings')}")
    _need(report.get("symplectic") == want["symplectic"], "pair: symplectic flags")
    _need(report.get("elliptic") is want["elliptic"], "pair: elliptic flag")
    _need(isinstance(report.get("orthogonalized_phi"), dict), "pair: no orthogonalized phi")
    if want["elliptic"]:
        kappa = float(want["kappa"])
        got = report.get("kappa")
        _need(_number(got) and abs(got - kappa) <= KAPPA_TOL * max(1.0, kappa), f"pair: kappa {got} != {kappa}")
        nf = report.get("normal_form")
        _need(isinstance(nf, dict) and nf.get("epsilon_flipped") is False, "pair: normal form")
        _need(_number(nf.get("kappa")) and abs(nf["kappa"] - kappa) <= KAPPA_TOL * max(1.0, kappa), "pair: normal-form kappa")
        res = report.get("reconstruction_residual")
        _need(_number(res) and 0 <= res <= RESIDUAL_TOL, f"pair: reconstruction residual {res}")
    else:
        _need(report.get("kappa") is None and report.get("normal_form") is None, "pair: non-elliptic pair has a normal form")
        _need("reconstruction_residual" not in report, "pair: non-elliptic pair has a residual")
    return ["ok"]


def _check_splitting(req: Request, report) -> List[str]:
    alpha = req.expect["alpha"]
    a = float(alpha)
    sq = alpha * alpha
    _need(report.get("degree_squared") == f"{sq.numerator}/{sq.denominator}", f"splitting: degree² {report.get('degree_squared')}")
    for key in ("degree", "canonical_model_degree"):
        got = report.get(key)
        _need(_number(got) and abs(got - a) <= DEGREE_TOL * max(1.0, a), f"splitting: {key} {got} != {a}")
    res = report.get("canonical_model_residual")
    _need(_number(res) and res <= DEGREE_TOL * max(1.0, a), "splitting: canonical-model residual")
    _need(report.get("orthogonal") is (alpha == 0), "splitting: orthogonal flag")
    _need(report.get("epsilon_flipped") is False, "splitting: epsilon flipped")
    return ["ok"]


_REPORT_CHECKS = {
    "eds": _check_eds,
    "hypersurface": _check_hypersurface,
    "pair": _check_pair,
    "splitting": _check_splitting,
}


def tally(statuses: List[str]) -> Dict[str, int]:
    """Counts per status; every ``wrong: …`` is counted under ``wrong``."""
    out: Dict[str, int] = {}
    for s in statuses:
        key = "wrong" if s.startswith("wrong") else s
        out[key] = out.get(key, 0) + 1
    return out


def first_wrong(statuses: List[str]) -> Optional[str]:
    return next((s for s in statuses if s.startswith("wrong")), None)
