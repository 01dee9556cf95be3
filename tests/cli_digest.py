"""Two digests of the CLI's output, to compare two trees.

    python tests/cli_digest.py

The first line covers the benchmark: it builds the requests of every
workload in ``perfbench/inputs.py`` for seeds 0 … 19.  The second covers
edge requests built here, which those never send: rational maps over four
distinct denominators with mixed monomials, far points of the sphere chart,
and points whose coordinates share one 2861-digit denominator.  Each request
runs through ``pathgeom.cli.main`` in this process, and each line prints the
number of requests and the sha256 of their exit codes, stdout and stderr, in
order.  The ``pathgeom`` imported is the one under this tree's ``src/``, so
the same command from the root of two trees prints the same lines exactly
when their output is byte-identical.  The payloads are written to a
temporary directory, whose path is replaced by ``<tmp>`` before hashing.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pathgeom.cli import main as cli_main  # noqa: E402
from pathgeom.hypersurface import heisenberg_model, sphere_chart_model  # noqa: E402


def load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def run(argv, tmp: str) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".replace(tmp, "<tmp>")
    return text.encode("utf-8")


def rational_map(quotients) -> dict:
    """The JSON of a rational map from four (numerator, denominator) term dicts {exponent: coefficient}."""
    def poly(terms):
        return [{"exp": list(e), "c": str(c)} for e, c in terms.items()]

    return {"vars": ["x1", "x2", "x3"], "type": "rational",
            "components": [{"num": poly(n), "den": poly(d)} for n, d in quotients]}


def four_denominator_map(seed: int) -> dict:
    """Numerators of four terms, one of them mixed, over c + (a sum of squares and mixed terms), c = 1, 2, 3, 5.

    Every coefficient of a denominator is positive, so none vanishes at a point of positive coordinates.
    """
    rng = random.Random(seed)
    low = [(i, j, k) for i in range(4) for j in range(4) for k in range(4) if 0 < i + j + k <= 3]
    quotients = []
    for c in (1, 2, 3, 5):
        num = {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in rng.sample(low, 3)}
        num[rng.choice([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])] = rng.randint(1, 4)
        den = {(0, 0, 0): c, **{e: rng.randint(1, 5) for e in rng.sample([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)], 3)}}
        quotients.append((num, den))
    return rational_map(quotients)


#: a cubic map over 1 + x₁², 2 + x₂², 3 + x₃² and 5 + |x|²
CUBIC_OVER_FOUR = rational_map([
    ({(1, 0, 0): 1, (0, 3, 0): 1}, {(0, 0, 0): 1, (2, 0, 0): 1}),
    ({(0, 1, 0): 1, (0, 0, 3): 1}, {(0, 0, 0): 2, (0, 2, 0): 1}),
    ({(0, 0, 1): 1, (3, 0, 0): 1}, {(0, 0, 0): 3, (0, 0, 2): 1}),
    ({(1, 1, 1): 1}, {(0, 0, 0): 5, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}),
])

#: points whose three coordinates share one 2861-digit denominator
SHARED_DENOMINATOR_POINTS = [[f"{k}/{10**2860 + 7}" for k in ks] for ks in ((1, 2, 3), (4, 5, 6), (7, 8, 9))]


def edge_requests() -> list:
    """(command, payload) of each edge request, one point each."""
    points = [["1/2", "2/3", "3/4"], ["5/2", "1/7", "4/3"], ["7", "11", "13"],
              [f"{10**40 + 1}/{10**41 + 3}", "1/3", f"{10**60}/7"],
              *([f"{k}/{10**d + k}" for k in (1, 2, 3)] for d in (50, 250, 300, 1000, 2000))]
    sphere = sphere_chart_model().to_json()
    far = [["-19", "14", "1"], [str(10**6), str(-10**6), "1"], ["1e50", "1", "-1"], [str(10**100), "0", "0"],
           ["1e1500", "1", "1"], ["3" * 1720, "1", "1"], ["1" * 4250, "2" * 4250, "3" * 4250]]
    return ([("hypersurface", {"map": four_denominator_map(seed), "points": [p]}) for seed in (0, 1, 2) for p in points]
            + [("hypersurface", {"map": sphere, "points": [p]}) for p in far]
            + [("hypersurface", {"map": heisenberg_model().to_json(), "points": [["1" * 4250, "2", "3"]]})]
            + [("hypersurface", {"map": CUBIC_OVER_FOUR, "points": [p]}) for p in SHARED_DENOMINATOR_POINTS])


def main() -> int:
    inputs = load_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        batches = [[(req.command, req.payload) for workload in inputs.WORKLOADS for seed in range(20)
                    for req in inputs.build(workload, seed)],
                   [(command, json.dumps(payload)) for command, payload in edge_requests()]]
        for label, batch in zip(("requests", "edge requests"), batches):
            digest = hashlib.sha256()
            for i, (command, payload) in enumerate(batch):
                path = Path(tmp) / f"{label[0]}{i}.json"
                path.write_text(payload, encoding="utf-8")
                digest.update(run([command, "--input", str(path)], tmp))
            print(f"{len(batch)} {label} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
