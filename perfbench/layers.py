"""In-process runs of a workload through ``pathgeom.cli.main``, traced by module.

Run in a fresh interpreter, so that the import of ``pathgeom`` is timed and
nothing cached by one pass reaches the next::

    python3 perfbench/layers.py --manifest M --mode plain|traced [--spans OUT]

``M`` is a JSON list of CLI argument lists.  The script prints one JSON
object: the import time, the in-process wall time of the requests, each
request's exit code, stdout and stderr, and, when traced, the call count and
self time of every traced function.

Tracing wraps the public functions of each module from outside; ``src/`` is
not edited.  A wrapper replaces the module attribute and every other name
bound to the same function object (``eds.wedge``, ``cli.sample_report``,
``Poly.__rmul__`` …), so calls through re-bound names are seen too.  Each call
records a span (name, start, end, parent span, request index); spans stay in
memory and are written to ``--spans`` at the end.  A span's self time is its
duration minus that of its direct children.  ``scalars`` is too thin to time
on its own; its time counts toward its callers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from typing import Dict, List, Tuple

#: the functions that get a span, per module; ``_ParamMap`` is the private
#: base class of ``PolyMap`` and ``RationalMap``
TRACED = {
    "cli": ("main", "render_json", "cmd_pair_classify", "cmd_splitting_degree", "cmd_hypersurface",
            "cmd_eds_verify"),
    "eds": ("verify_sample", "ideal_at", "characters", "polar_space", "codim_at", "is_integral_element",
            "linearized_conditions", "complement_frame"),
    "hypersurface": ("sample_report", "point_record", "pullback_splitting", "_ParamMap.jacobian_at",
                     "contact_value_at", "line_fields_at", "cr_structure_at", "compatibility_check",
                     "adapted_coframe_at"),
    "polynomials": ("Poly.__call__", "Poly.diff", "Poly.__mul__", "RatFunc.__call__", "RatFunc.diff"),
    "linalg": ("rref", "rank", "nullspace", "solve", "intersect_spans", "det"),
    "exterior": ("wedge", "evaluate", "pullback", "conformal_pairing"),
    "pairs": ("normal_form", "orthogonalize", "is_elliptic"),
    "splitting": ("degree_squared", "canonical_model"),
}
MODULES = tuple(TRACED)

#: (metric name, module, attribute); a private class drops out of the name
TARGETS: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"{mod}.{attr.split('.', 1)[1] if attr.startswith('_') else attr}", mod, attr)
    for mod, attrs in TRACED.items()
    for attr in attrs
)

Span = List  # [name, start, end, parent index or -1, request index]


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.request = -1
        self.rref_entries = 0
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def count_rref(self, fn):
        """rref with its work counted as rows × columns per call."""

        @functools.wraps(fn)
        def counted(a):
            self.rref_entries += len(a) * (len(a[0]) if len(a) else 0)
            return fn(a)

        return counted

    def install(self):
        """Wrap every target, under every name it is bound to in ``pathgeom``."""
        modules = [m for n, m in sys.modules.items() if n == "pathgeom" or n.startswith("pathgeom.")]
        for name, mod, attr in TARGETS:
            owner = importlib.import_module(f"pathgeom.{mod}")
            *classes, fname = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[fname]
            inner = self.count_rref(original) if name == "linalg.rref" else original
            wrapped = self.wrap(name, inner)
            # a class's own aliases (__rmul__ = __mul__), or every module's re-binding
            holders = [owner] if classes else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def summary(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Call counts and self times per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        return calls, self_s

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{req}\n")


def call_main(main, argv) -> Tuple[int, str, str]:
    """What ``python -m pathgeom.cli argv`` would return, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # an uncaught error ends the real process the same way
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run(manifest: List[List[str]], traced: bool, spans_path: str = "") -> dict:
    t0 = time.perf_counter()
    import pathgeom.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if traced:
        tracer.install()
    results, wall = [], 0.0
    for i, argv in enumerate(manifest):
        tracer.request = i
        t = time.perf_counter()
        results.append(call_main(cli.main, argv))
        wall += time.perf_counter() - t
    out = {"import_s": import_s, "wall_s": wall, "results": results, "module_file": cli.__file__}
    if traced:
        out["calls"], out["self_s"] = tracer.summary()
        out["rref_entries"] = tracer.rref_entries
        out["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write(spans_path)
    return out


def layer_metrics(traced: dict, plain: dict, samples: int, points: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, with the plain pass for the overhead."""
    calls, self_s = traced["calls"], traced["self_s"]
    m: Dict[str, Tuple[float, str]] = {"cli.import_s": (traced["import_s"], "s")}
    for name, _, _ in TARGETS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for mod in MODULES:
        m[f"{mod}.self_s"] = (sum(v for k, v in self_s.items() if k.startswith(mod + ".")), "s")
    m["linalg.rref.entries"] = (traced["rref_entries"], "count")
    m["eds.is_integral_element.calls_per_sample"] = (
        calls.get("eds.is_integral_element", 0) / samples if samples else 0.0, "1/sample")
    m["hypersurface.jacobian_at.calls_per_point"] = (
        calls.get("hypersurface.jacobian_at", 0) / points if points else 0.0, "1/point")
    m["polynomials.diff_calls_per_point"] = (
        calls.get("polynomials.Poly.diff", 0) / points if points else 0.0, "1/point")
    m["trace.plain_wall_s"] = (plain["wall_s"], "s")
    m["trace.traced_wall_s"] = (traced["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True, help="JSON file: a list of CLI argument lists")
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--spans", default="", help="write the spans here (traced mode)")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(json.dumps(run(manifest, args.mode == "traced", args.spans)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
