"""Seeded inputs for the benchmark workloads, each with what its output must say.

Everything here is plain Python on ``fractions.Fraction``: the benchmark
never imports ``pathgeom`` to build inputs or expectations, so the expected
values are an independent oracle and the timed runs start from a cold
interpreter.

A :class:`Request` is one CLI invocation.  ``items`` is how many results it
counts for: samples for ``eds``, points for ``hypersurface``, one otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

WORKLOADS = ("eds-sweep", "sphere-grid", "mixed-requests")

#: curvature samples in one ``eds-sweep`` request
EDS_SAMPLES = 100
#: points in one ``sphere-grid`` request, and how many of them lie far out
SPHERE_POINTS = 20
SPHERE_FAR_POINTS = 2
#: coordinates stay within this box; near points lie at |x| <= 17 and far
#: points at |x| >= 20, on either side of |x| ~ 18.8, where the CLI starts to
#: report a degenerate coframe
SPHERE_BOX = 20
SPHERE_NEAR_RADIUS = 17
SPHERE_FAR_RADIUS = 20

#: composition of one ``mixed-requests`` round; the order is shuffled by seed
MIXED_MIX: Tuple[Tuple[str, int], ...] = (
    ("pair-elliptic", 5),
    ("pair-nonelliptic", 2),
    ("splitting", 5),
    ("hypersurface-graph", 4),
    ("hypersurface-heisenberg", 1),
    ("hypersurface-plane", 1),
    ("eds", 3),
    ("malformed-nonobject-pair", 1),
    ("malformed-nonobject-splitting", 1),
    ("malformed-nan-pair", 1),
    ("malformed-bad-term", 1),
)


@dataclass
class Request:
    """One CLI call: ``pathgeom <command> --input <file>`` on ``payload``."""

    id: str
    kind: str
    command: str
    payload: str
    expect: dict = field(default_factory=dict)
    items: int = 1


def frac(x: Fraction) -> str:
    """The CLI's rendering of an exact rational."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# -- polynomials in three variables, as exponent -> coefficient dicts --------

Poly3 = Dict[Tuple[int, int, int], Fraction]


def poly_json(p: Poly3) -> list:
    return [{"exp": list(e), "c": frac(c)} for e, c in sorted(p.items()) if c != 0]


def poly_diff(p: Poly3, var: int) -> Poly3:
    out: Poly3 = {}
    for e, c in p.items():
        if e[var]:
            ne = tuple(k - 1 if i == var else k for i, k in enumerate(e))
            out[ne] = out.get(ne, Fraction(0)) + c * e[var]
    return out


def poly_eval(p: Poly3, pt) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        total += c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
    return total


def _var(i: int) -> Poly3:
    return {tuple(1 if k == i else 0 for k in range(3)): Fraction(1)}


def sphere_chart_json() -> dict:
    """The Cayley chart u = ((1−q), 2x¹, 2x², 2x³)/(1+q), q = |x|², of S³."""
    q = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    den = {**q, (0, 0, 0): Fraction(1)}
    num0 = {e: -c for e, c in q.items()}
    num0[(0, 0, 0)] = Fraction(1)
    nums = [num0] + [{e: 2 * c for e, c in _var(i).items()} for i in range(3)]
    return {
        "vars": ["x1", "x2", "x3"],
        "type": "rational",
        "components": [{"num": poly_json(n), "den": poly_json(den)} for n in nums],
    }


def heisenberg_json() -> dict:
    """u(t, w₁, w₂) = (w₁, w₂, t, w₁² + w₂²)."""
    w1, w2, t = _var(1), _var(2), _var(0)
    return {"vars": ["x1", "x2", "x3"], "components": [poly_json(p) for p in (w1, w2, t, {(0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)})]}


def graph_json(f: Poly3) -> dict:
    """The graph u(x) = (x¹, x², x³, f(x))."""
    return {"vars": ["x1", "x2", "x3"], "components": [poly_json(p) for p in (_var(0), _var(1), _var(2), f)]}


def graph_point_expect(f: Poly3, pt) -> dict:
    """b₁, b₂ and the contact verdict of the graph of f at a point.

    For u = (x, f(x)): u*ω₀ = dx¹∧dx³ + f₁dx¹∧dx² − f₃dx²∧dx³ and
    u*φ₀ = f₂dx¹∧dx² + f₃dx¹∧dx³ + dx²∧dx³, so b₁ = (−f₃, −1, f₁),
    b₂ = (1, −f₃, f₂) and m = b₁×b₂ = (f₁f₃ − f₂, f₁ + f₂f₃, 1 + f₃²).
    The contact scalar is m·curl(m), from the gradient and Hessian of f.
    """
    g = [poly_diff(f, i) for i in range(3)]
    f1, f2, f3 = (poly_eval(gi, pt) for gi in g)
    h = [[poly_eval(poly_diff(g[i], j), pt) for j in range(3)] for i in range(3)]
    # dm[i][k] = ∂ᵢ m_k
    dm = [
        (h[0][i] * f3 + f1 * h[2][i] - h[1][i], h[0][i] + h[1][i] * f3 + f2 * h[2][i], 2 * f3 * h[2][i])
        for i in range(3)
    ]
    m = (f1 * f3 - f2, f1 + f2 * f3, 1 + f3 * f3)
    curl = (dm[1][2] - dm[2][1], dm[2][0] - dm[0][2], dm[0][1] - dm[1][0])
    contact = sum(a * b for a, b in zip(m, curl)) != 0
    return {
        "point": [frac(x) for x in pt],
        "b1": [frac(x) for x in (-f3, Fraction(-1), f1)],
        "b2": [frac(x) for x in (Fraction(1), -f3, f2)],
        "contact": contact,
    }


# -- 2-forms on R^4, as (i, j) -> coefficient dicts with i < j ---------------

Form2 = Dict[Tuple[int, int], Fraction]
PAIRS = tuple(combinations(range(1, 5), 2))
OMEGA0: Form2 = {(1, 3): Fraction(1), (2, 4): Fraction(-1)}
PHI0: Form2 = {(1, 4): Fraction(1), (2, 3): Fraction(1)}


def form_json(w: Form2) -> dict:
    return {"dim": 4, "degree": 2, "terms": [{"idx": list(ij), "c": frac(c)} for ij, c in sorted(w.items()) if c != 0]}


def form_add(*terms: Tuple[Fraction, Form2]) -> Form2:
    out: Form2 = {}
    for s, w in terms:
        for ij, c in w.items():
            out[ij] = out.get(ij, Fraction(0)) + s * c
    return out


def pullback(w: Form2, a) -> Form2:
    """(A*w)_{ij} = Σ_{k<l} w_{kl} (A_{ki}A_{lj} − A_{kj}A_{li})."""
    return {
        (i, j): sum(
            (c * (a[k - 1][i - 1] * a[l - 1][j - 1] - a[k - 1][j - 1] * a[l - 1][i - 1]) for (k, l), c in w.items()),
            Fraction(0),
        )
        for i, j in PAIRS
    }


def pairing(w: Form2, p: Form2) -> Fraction:
    """⟨w, p⟩ with w∧p = ⟨w, p⟩ e¹∧e²∧e³∧e⁴."""
    g = lambda f, ij: f.get(ij, Fraction(0))  # noqa: E731
    return (
        g(w, (1, 2)) * g(p, (3, 4)) - g(w, (1, 3)) * g(p, (2, 4)) + g(w, (1, 4)) * g(p, (2, 3))
        + g(w, (2, 3)) * g(p, (1, 4)) - g(w, (2, 4)) * g(p, (1, 3)) + g(w, (3, 4)) * g(p, (1, 2))
    )


def _det(m) -> Fraction:
    m = [list(map(Fraction, row)) for row in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def gl_plus(rng: random.Random):
    """A 4×4 integer matrix with entries in [−2, 2] and determinant in [1, 12]."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if 1 <= _det(a) <= 12:
            return a


def small_rational(rng: random.Random, bound: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den, bound * den), den)


# -- request generators --------------------------------------------------------


def eds_sample(rng: random.Random) -> dict:
    return {k: frac(small_rational(rng, 10, 100)) for k in ("W1", "W2", "F1", "F2")}


def eds_request(rid: str, samples: List[dict]) -> Request:
    payload = json.dumps({"samples": samples})
    return Request(rid, "eds", "eds", payload, {"exit": 0, "samples": samples}, items=len(samples))


def eds_sweep(rng: random.Random) -> List[Request]:
    """N distinct curvature samples in one request."""
    seen, samples = set(), []
    while len(samples) < EDS_SAMPLES:
        s = eds_sample(rng)
        key = tuple(s.values())
        if key not in seen:
            seen.add(key)
            samples.append(s)
    return [eds_request("eds-sweep", samples)]


def _point_in_shell(rng: random.Random, den: int, rmin: float, rmax: float):
    """A point with denominator ``den``, coordinates in the box, rmin ≤ |x| ≤ rmax."""
    reach = int(min(SPHERE_BOX, rmax) * den)
    for _ in range(100_000):
        pt = tuple(Fraction(rng.randint(-reach, reach), den) for _ in range(3))
        r2 = sum(x * x for x in pt)
        if rmin * rmin <= r2 <= rmax * rmax:
            return pt
    raise RuntimeError(f"no point with denominator {den} in the shell [{rmin}, {rmax}]")


def sphere_grid(rng: random.Random) -> List[Request]:
    """Points from near the origin out to the box edge, on the Cayley sphere chart.

    Radii are stratified, so every seed has the same radius profile and the
    same number of far points (|x| ≥ 20); denominators cycle through 1..10.
    Coordinates are drawn per shell, which keeps the size of the Fractions,
    and so the cost, alike across seeds.
    """
    near = SPHERE_POINTS - SPHERE_FAR_POINTS
    points = []
    for i in range(near):
        den = 1 + i % 10
        lo = SPHERE_NEAR_RADIUS * i / near
        hi = SPHERE_NEAR_RADIUS * (i + 1) / near
        points.append(_point_in_shell(rng, den, lo, hi))
    for i in range(SPHERE_FAR_POINTS):
        points.append(_point_in_shell(rng, 1 + (near + i) % 10, SPHERE_FAR_RADIUS, 3 * SPHERE_BOX))
    rng.shuffle(points)
    pts = [[frac(x) for x in pt] for pt in points]
    far = [sum(x * x for x in pt) >= SPHERE_FAR_RADIUS ** 2 for pt in points]
    payload = json.dumps({"map": sphere_chart_json(), "points": pts})
    expect = {"exit": 0, "points": pts, "far": far}
    return [Request("sphere-grid", "hypersurface-sphere", "hypersurface", payload, expect, items=len(pts))]


def _pair(rid: str, kind: str, omega: Form2, phi: Form2, expect: dict) -> Request:
    payload = json.dumps({"omega": form_json(omega), "phi": form_json(phi)})
    return Request(rid, kind, "pair", payload, expect)


def pair_elliptic(rid: str, rng: random.Random) -> Request:
    """GL⁺ pullback of ω₀ and κφ₀ + cω₀ with rational κ > 0."""
    a = gl_plus(rng)
    kappa = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    omega = pullback(OMEGA0, a)
    phi = pullback(form_add((kappa, PHI0), (c, OMEGA0)), a)
    pairings = {"ww": pairing(omega, omega), "wp": pairing(omega, phi), "pp": pairing(phi, phi)}
    return _pair(rid, "pair-elliptic", omega, phi, {
        "exit": 0, "elliptic": True, "kappa": kappa,
        "pairings": {k: frac(v) for k, v in pairings.items()},
        "symplectic": {"omega": True, "phi": True},
    })


def pair_nonelliptic(rid: str, rng: random.Random) -> Request:
    """GL⁺ pullback of ω₀ and a·e¹²+b·e³⁴+cω₀ with ab < 0 (never elliptic)."""
    a_map = gl_plus(rng)
    a = Fraction(rng.randint(1, 5))
    b = -Fraction(rng.randint(1, 5), rng.randint(1, 3))
    c = Fraction(rng.randint(-3, 3))
    omega = pullback(OMEGA0, a_map)
    phi = pullback(form_add((a, {(1, 2): Fraction(1)}), (b, {(3, 4): Fraction(1)}), (c, OMEGA0)), a_map)
    pairings = {"ww": pairing(omega, omega), "wp": pairing(omega, phi), "pp": pairing(phi, phi)}
    return _pair(rid, "pair-nonelliptic", omega, phi, {
        "exit": 0, "elliptic": False,
        "pairings": {k: frac(v) for k, v in pairings.items()},
        "symplectic": {"omega": True, "phi": pairings["pp"] != 0},
    })


def splitting(rid: str, rng: random.Random) -> Request:
    """GL⁺ image of the canonical model L₁ = ω₀, L₂ = αω₀ + φ₀."""
    alpha = Fraction(rng.randint(0, 12), rng.randint(1, 4))
    a = gl_plus(rng)
    l1 = pullback(OMEGA0, a)
    l2 = pullback(form_add((alpha, OMEGA0), (Fraction(1), PHI0)), a)
    payload = json.dumps({"L1": form_json(l1), "L2": form_json(l2)})
    return Request(rid, "splitting", "splitting", payload, {"exit": 0, "alpha": alpha})


def hypersurface_graph(rid: str, rng: random.Random) -> Request:
    """Graph of a random polynomial of degree ≤ 3, at 1–3 rational points."""
    f: Poly3 = {}
    monomials = [e for e in ((i, j, k) for i in range(4) for j in range(4) for k in range(4)) if 1 <= sum(e) <= 3]
    for e in rng.sample(monomials, rng.randint(2, 5)):
        f[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
    points = [tuple(small_rational(rng, 2, 4) for _ in range(3)) for _ in range(rng.randint(1, 3))]
    payload = json.dumps({"map": graph_json(f), "points": [[frac(x) for x in pt] for pt in points]})
    expect = {"exit": 0, "graph": [graph_point_expect(f, pt) for pt in points]}
    return Request(rid, "hypersurface-graph", "hypersurface", payload, expect, items=len(points))


def hypersurface_fixed(rid: str, kind: str) -> Request:
    """The Heisenberg origin (contact) or the affine plane (never contact)."""
    heis = kind == "hypersurface-heisenberg"
    u = heisenberg_json() if heis else graph_json({})
    payload = json.dumps({"map": u, "points": [["0/1", "0/1", "0/1"]]})
    return Request(rid, kind, "hypersurface", payload, {"exit": 0, "contact": heis})


def malformed(rid: str, kind: str, rng: random.Random) -> Request:
    """Inputs the CLI must reject with exit 1 and a one-line error."""
    if kind == "malformed-nonobject-pair":
        return Request(rid, kind, "pair", json.dumps([1, 2]), {"exit": 1})
    if kind == "malformed-nonobject-splitting":
        return Request(rid, kind, "splitting", json.dumps([rng.randint(0, 9), "L1"]), {"exit": 1})
    if kind == "malformed-nan-pair":
        omega = form_json(OMEGA0)
        omega["terms"][0]["c"] = float("nan")
        return Request(rid, kind, "pair", json.dumps({"omega": omega, "phi": form_json(PHI0)}), {"exit": 1})
    # a term index outside the 4-space
    phi = form_json(PHI0)
    phi["terms"].append({"idx": [rng.randint(1, 4), 5], "c": "1/1"})
    return Request(rid, kind, "pair", json.dumps({"omega": form_json(OMEGA0), "phi": phi}), {"exit": 1})


def mixed_requests(rng: random.Random) -> List[Request]:
    out: List[Request] = []
    for kind, count in MIXED_MIX:
        for n in range(count):
            rid = f"{kind}-{n}"
            if kind == "pair-elliptic":
                out.append(pair_elliptic(rid, rng))
            elif kind == "pair-nonelliptic":
                out.append(pair_nonelliptic(rid, rng))
            elif kind == "splitting":
                out.append(splitting(rid, rng))
            elif kind == "hypersurface-graph":
                out.append(hypersurface_graph(rid, rng))
            elif kind in ("hypersurface-heisenberg", "hypersurface-plane"):
                out.append(hypersurface_fixed(rid, kind))
            elif kind == "eds":
                out.append(eds_request(rid, [eds_sample(rng) for _ in range(rng.randint(1, 2))]))
            else:
                out.append(malformed(rid, kind, rng))
    rng.shuffle(out)
    return out


def build(workload: str, seed: int) -> List[Request]:
    """The requests of one round of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "eds-sweep":
        return eds_sweep(rng)
    if workload == "sphere-grid":
        return sphere_grid(rng)
    if workload == "mixed-requests":
        return mixed_requests(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
