"""Hypersurface records against golden output, and the per-point work count.

``data/hypersurface_golden.json`` holds, per case, a map, its query points
and the ``render_json`` text of ``sample_report`` as the earlier formal
implementation produced it, which differentiated the map again at every
point.  The cases are the Heisenberg model, the affine plane, a cubic graph,
three maps and points that end in error records (rank drop, pole, wrong
dimension), the 18 points with |x| ≤ 17 of the benchmark's
``sphere-grid`` request for seed 1 on the sphere chart, and a seeded map
whose four components have distinct 5-term denominators, at three points
and one pole, captured from the formal pullback.
"""

import inspect
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pathgeom import linalg
from pathgeom.cli import render_json
from pathgeom.hypersurface import ParamMap, point_record, sample_report
from pathgeom.polynomials import Poly

GOLDEN = json.loads((Path(__file__).parent / "data" / "hypersurface_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_match_golden(name):
    case = GOLDEN[name]
    points = [[Fraction(x) for x in p] for p in case["points"]]
    assert render_json({"points": sample_report(ParamMap.from_json(case["map"]), points)}) == case["rendered"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_per_point_evaluation_does_no_calculus(name, monkeypatch):
    """No differentiation per point, and the CR step reads D and I off one null space:
    at most two 2-column solves, no span intersection and no span comparison."""
    case = GOLDEN[name]
    u = ParamMap.from_json(case["map"])
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Poly, "diff", counted("diff", Poly.diff))
    monkeypatch.setattr(ParamMap, "jacobian_at", counted("jacobian_at", ParamMap.jacobian_at))
    for fname, fn in list(vars(linalg).items()):
        if inspect.isfunction(fn) and fn.__module__ == linalg.__name__:
            monkeypatch.setattr(linalg, fname, counted(f"linalg.{fname}", fn))
    for p in case["points"]:
        calls.clear()
        point_record(u, [Fraction(x) for x in p])
        assert calls["diff"] == calls["jacobian_at"] == 0
        assert calls["linalg.solve"] <= 2
        assert calls["linalg.intersect_spans"] == calls["linalg.span_equal"] == 0
