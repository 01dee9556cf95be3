"""Command-line front end: JSON in, JSON out, batch-friendly.

Subcommands mirror the library pipelines:

* ``pair``          — pairings, symplectic/elliptic flags, κ and normal form
* ``splitting``     — degree of a splitting and canonical-model comparison
* ``hypersurface``  — per-point path-geometry / CR reports for a map
* ``eds``           — involutivity verification over curvature samples

Exit codes: 0 success (all samples pass), 1 malformed input, 2 verification
failure.  Floats are serialized with 17 significant digits; exact rationals
as "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

# Config and --epsilon need these two; each cmd_* imports its own pipeline, so
# that a request loads only the modules it uses
from .exterior import DEFAULT_VOLUME, MultiVector, VolumeForm, conformal_pairing
from .scalars import scalar_to_json


@dataclass
class Config:
    tolerance: float = 1e-9
    seed: int = 0
    epsilon: VolumeForm = DEFAULT_VOLUME
    out: Optional[str] = None

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite number > 0, not {self.tolerance!r}")


#: the most curvature samples ``eds --samples`` draws; 10000 take about 0.5 s
MAX_SAMPLES = 10_000


class InputError(Exception):
    """Malformed input; maps to exit code 1."""


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits; NaN and ±inf are refused."""
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 2)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat:
            return "[" + ", ".join(render_json(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 2)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r} in the report")
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return json.dumps(scalar_to_json(value))
    return json.dumps(value)


def _load_payload(path: Optional[str]):
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc


def _load_object(path: Optional[str]) -> dict:
    payload = _load_payload(path)
    if not isinstance(payload, dict):
        raise InputError(f"input must be a JSON object, not {type(payload).__name__}")
    return payload


def _two_form(data, name: str) -> MultiVector:
    try:
        form = MultiVector.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed 2-form {name!r}: {exc}") from exc
    if form.dim != 4 or form.degree != 2:
        raise InputError(f"{name!r} must be a 2-form on the 4-space")
    return form


def cmd_pair_classify(payload, cfg: Config) -> tuple:
    from .pairs import (
        EllipticPair,
        is_elliptic,
        is_symplectic,
        kappa_invariant,
        normal_form,
        orthogonalize,
        reconstruction_residual,
    )

    omega = _two_form(payload.get("omega"), "omega")
    phi = _two_form(payload.get("phi"), "phi")
    eps = cfg.epsilon
    ww = conformal_pairing(omega, omega, eps)
    wp = conformal_pairing(omega, phi, eps)
    pp = conformal_pairing(phi, phi, eps)
    report = {
        "pairings": {"ww": ww, "wp": wp, "pp": pp},
        "symplectic": {"omega": is_symplectic(omega, eps), "phi": is_symplectic(phi, eps)},
        "elliptic": is_elliptic(omega, phi, eps),
    }
    # an elliptic pair has ⟨ω,ω⟩⟨φ,φ⟩ > ⟨ω,φ⟩² ≥ 0, so ω is symplectic and phi_orth is set
    if report["symplectic"]["omega"]:
        phi_orth = orthogonalize(omega, phi, eps)
        report["orthogonalized_phi"] = phi_orth.to_json()
    if report["elliptic"]:
        pair = EllipticPair(omega, phi_orth, eps)
        nf = normal_form(pair, tol=cfg.tolerance)
        report["kappa"] = kappa_invariant(pair, tol=cfg.tolerance)
        report["normal_form"] = nf.to_json()
        report["reconstruction_residual"] = reconstruction_residual(pair, nf)
    else:
        report["kappa"] = None
        report["normal_form"] = None
    return report, 0


def cmd_splitting_degree(payload, cfg: Config) -> tuple:
    from .splitting import Splitting, canonical_model, degree, degree_squared

    try:
        if "epsilon" not in payload and cfg.epsilon is not DEFAULT_VOLUME:
            payload = dict(payload, epsilon=cfg.epsilon.as_form().to_json())
        s = Splitting.from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed splitting: {exc}") from exc
    d = degree(s)
    d2 = degree_squared(s)
    model = canonical_model(d)
    report = {
        "degree": d,
        "degree_squared": d2 if isinstance(d2, Fraction) else float(d2),
        "orthogonal": d <= cfg.tolerance,
        "epsilon_flipped": s.epsilon_flipped,
        "canonical_model_degree": degree(model),
        "canonical_model_residual": abs(degree(model) - d),
    }
    return report, 0


def cmd_hypersurface(payload, cfg: Config) -> tuple:
    from .hypersurface import ParamMap, sample_report

    try:
        u = ParamMap.from_json(payload["map"])
        points = [[Fraction(str(x)) for x in pt] for pt in payload.get("points", [])]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed hypersurface input: {exc}") from exc
    records = sample_report(u, points, tol=cfg.tolerance)
    return {"points": records}, 0


def cmd_eds_verify(payload, cfg: Config, samples: Optional[int]) -> tuple:
    from . import eds

    if samples is not None:
        curvatures = eds.sample_curvatures(samples, seed=cfg.seed)
    else:
        raw = payload.get("samples", payload) if isinstance(payload, dict) else payload
        try:
            curvatures = [eds.CurvatureSample.from_json(s) for s in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed curvature samples: {exc}") from exc
    report = eds.verify_involutivity(curvatures)
    return report.to_json(), 0 if report.all_pass else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathgeom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tol", type=float, default=1e-9, help="floating-path tolerance (default 1e-9)")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled verifications")
    parser.add_argument("--epsilon", type=str, default=None, help="volume form override as MultiVector JSON")
    parser.add_argument("--out", type=str, default=None, help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="classify a pair of 2-forms")
    p.add_argument("--input", default=None, help="JSON file ('-' or omitted: stdin)")

    p = sub.add_parser("splitting", help="degree of a splitting")
    p.add_argument("--input", default=None)

    p = sub.add_parser("hypersurface", help="per-point reports for a parametrized hypersurface")
    p.add_argument("--input", default=None)

    p = sub.add_parser("eds", help="involutivity verification")
    p.add_argument("--input", default=None)
    p.add_argument("--samples", type=int, default=None,
                   help=f"number of seeded curvature samples, at most {MAX_SAMPLES}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eps = DEFAULT_VOLUME
        if args.epsilon:
            eps = VolumeForm.from_form(MultiVector.from_json(json.loads(args.epsilon)))
        cfg = Config(tolerance=args.tol, seed=args.seed, epsilon=eps, out=args.out)
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "pair":
            report, code = cmd_pair_classify(_load_object(args.input), cfg)
        elif args.command == "splitting":
            report, code = cmd_splitting_degree(_load_object(args.input), cfg)
        elif args.command == "hypersurface":
            report, code = cmd_hypersurface(_load_object(args.input), cfg)
        elif args.command == "eds":
            if args.samples is not None and args.samples < 0:
                raise InputError("--samples must be nonnegative")
            if args.samples is not None and args.samples > MAX_SAMPLES:
                raise InputError(f"--samples must be at most {MAX_SAMPLES}")
            payload = None if args.samples is not None else _load_payload(args.input)
            report, code = cmd_eds_verify(payload, cfg, args.samples)
        else:  # pragma: no cover - argparse enforces the choices
            raise InputError(f"unknown command {args.command!r}")
        text = render_json(report) + "\n"
    except (InputError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not cfg.out:
        sys.stdout.write(text)
        return code
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
