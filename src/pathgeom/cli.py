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

import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps(str) writes
from typing import Optional, Sequence

# each cmd_* imports its own pipeline, and only ``pair``, ``splitting`` and
# ``--epsilon`` import ``exterior``, so that a request loads only the modules it uses
from .scalars import DEFAULT_TOL, rational_from_json, scalar_to_json, sqrt_of

#: the most curvature samples ``eds --samples`` draws; 10000 take about 0.5 s
MAX_SAMPLES = 10_000

USAGE = f"""\
usage: pathgeom [--tol TOL] [--seed SEED] [--epsilon JSON] [--out PATH] COMMAND [--input PATH]
       pathgeom [...] eds [--input PATH | --samples N]

  COMMAND           pair, splitting, hypersurface or eds
  --tol TOL         allowance of the float reconstruction residuals (default 1e-9)
  --seed SEED       seed for sampled verifications (default 0)
  --epsilon JSON    volume form override as MultiVector JSON
  --out PATH        write the report to this path instead of stdout
  --input PATH      JSON input file ('-' or omitted: stdin)
  --samples N       number of seeded curvature samples, at most {MAX_SAMPLES}
  -h, --help        print this text and exit

Options are spelled in full, as --name value or --name=value; the last one
given wins.  --tol, --seed, --epsilon and --out come before the command.
"""


class Config:
    """The options of one request; ``epsilon`` None is the default volume form."""

    __slots__ = ("tolerance", "seed", "epsilon", "out")

    def __init__(self, tolerance: float = DEFAULT_TOL, seed: int = 0, epsilon=None, out: Optional[str] = None):
        if not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite number > 0, not {tolerance!r}")
        self.tolerance, self.seed, self.epsilon, self.out = tolerance, seed, epsilon, out


class InputError(Exception):
    """Malformed input, the command line included; maps to exit code 1."""


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits; NaN and ±inf are refused."""
    if isinstance(value, str):
        return _quote(value)
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(f"{pad}  {_quote(str(k))}: {render_json(v, indent + 2)}" for k, v in value.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(map(render_json, value)) + "]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 2)}" for v in value)
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
        return _quote(scalar_to_json(value))
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


def _two_form(data, name: str):
    from .exterior import MultiVector

    try:
        form = MultiVector.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed 2-form {name!r}: {exc}") from exc
    if form.dim != 4 or form.degree != 2:
        raise InputError(f"{name!r} must be a 2-form on the 4-space")
    return form


def cmd_pair_classify(payload, cfg: Config) -> tuple:
    from .exterior import DEFAULT_VOLUME, _gram_definite_sign, gram_matrix
    from .pairs import EllipticPair, normal_form, orthogonalize

    omega = _two_form(payload.get("omega"), "omega")
    phi = _two_form(payload.get("phi"), "phi")
    eps = cfg.epsilon or DEFAULT_VOLUME
    gram = gram_matrix(omega, phi, eps)
    (ww, wp), (_, pp) = gram
    report = {
        # written now, so that a pairing past the digit limit is refused before any float work
        "pairings": {"ww": scalar_to_json(ww), "wp": scalar_to_json(wp), "pp": scalar_to_json(pp)},
        "symplectic": {"omega": ww != 0, "phi": pp != 0},
        "elliptic": _gram_definite_sign(gram) != 0,
    }
    # an elliptic pair has ⟨ω,ω⟩⟨φ,φ⟩ > ⟨ω,φ⟩² ≥ 0, so ω is symplectic and phi_orth is set
    if report["symplectic"]["omega"]:
        phi_orth = orthogonalize(omega, phi, eps)
        report["orthogonalized_phi"] = phi_orth.to_json()
    if report["elliptic"]:
        pair = EllipticPair(omega, phi_orth, eps)
        nf = normal_form(pair, tol=cfg.tolerance)
        report["kappa"] = nf.kappa
        report["normal_form"] = nf.to_json()
        report["reconstruction_residual"] = nf.residual
    else:
        report["kappa"] = None
        report["normal_form"] = None
    return report, 0


def cmd_splitting_degree(payload, cfg: Config) -> tuple:
    from .splitting import Splitting, canonical_model, degree, degree_squared

    try:
        if "epsilon" not in payload and cfg.epsilon is not None:
            payload = dict(payload, epsilon=cfg.epsilon.as_form().to_json())
        s = Splitting.from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed splitting: {exc}") from exc
    d2 = degree_squared(s)
    d2_text = scalar_to_json(d2)  # refused here, before its square root, past the digit limit
    d = sqrt_of(d2)
    model_d = degree(canonical_model(d))
    report = {
        "degree": d,
        "degree_squared": d2_text,
        "orthogonal": d2 == 0,
        "epsilon_flipped": s.epsilon_flipped,
        "canonical_model_degree": model_d,
        "canonical_model_residual": abs(model_d - d),
    }
    return report, 0


def cmd_hypersurface(payload, cfg: Config) -> tuple:
    from .hypersurface import ParamMap, sample_report

    try:
        u = ParamMap.from_json(payload["map"])
        points = payload.get("points", [])
        if not isinstance(points, list) or not all(isinstance(pt, list) for pt in points):
            raise TypeError("points must be an array of arrays")
        points = [[rational_from_json(x) for x in pt] for pt in points]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed hypersurface input: {exc}") from exc
    records = sample_report(u, points, tol=cfg.tolerance)
    return {"points": records}, 0


def cmd_eds_verify(payload, cfg: Config, samples: Optional[int]) -> tuple:
    from . import eds

    if samples is not None:
        curvatures = eds.sample_curvatures(samples, seed=cfg.seed)
    else:
        raw = payload.get("samples") if isinstance(payload, dict) else payload
        if not isinstance(raw, list) or not all(isinstance(s, dict) for s in raw):
            raise InputError("malformed curvature samples: samples must be an array of objects")
        try:
            curvatures = [eds.CurvatureSample.from_json(s) for s in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed curvature samples: {exc}") from exc
    report = eds.verify_involutivity(curvatures)
    return report.to_json(), 0 if report.all_pass else 2


#: the options before the command, and those of each command, with the reader of each value
_GLOBAL_OPTIONS = {"--tol": float, "--seed": int, "--epsilon": str, "--out": str}
_COMMANDS = {
    "pair": {"--input": str},
    "splitting": {"--input": str},
    "hypersurface": {"--input": str},
    "eds": {"--input": str, "--samples": int},
}


def _read_argv(argv: Sequence[str]) -> tuple:
    """(command, {option: value}) from ``[global options] command [command options]``.

    An option is ``--name value`` or ``--name=value``, spelled in full, and
    the last value given wins.  ``-h`` or ``--help`` anywhere prints the
    usage and exits 0.
    """
    if "-h" in argv or "--help" in argv:
        print(USAGE + "\n" + (__doc__ or ""))
        raise SystemExit(0)
    command, options, values = None, _GLOBAL_OPTIONS, {}
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-") or arg == "-":
            if command is not None:
                raise InputError(f"unrecognized argument {arg!r}")
            if arg not in _COMMANDS:
                raise InputError(f"invalid choice {arg!r} for the command (choose from {', '.join(_COMMANDS)})")
            command, options = arg, _COMMANDS[arg]
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            raise InputError(f"{name} is not an option {'before the command' if command is None else 'of ' + command}")
        if not eq:
            value = next(args, None)
            if value is None:
                raise InputError(f"{name} expects a value")
        try:
            values[name] = options[name](value)
        except ValueError:
            raise InputError(f"{name} expects {'a number' if options[name] is float else 'an integer'}, "
                             f"not {value!r}") from None
    if command is None:
        raise InputError(f"a command is required ({', '.join(_COMMANDS)})")
    return command, values


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, opts = _read_argv(sys.argv[1:] if argv is None else argv)
        eps = None
        if "--epsilon" in opts:
            from .exterior import MultiVector, VolumeForm

            eps = VolumeForm.from_form(MultiVector.from_json(json.loads(opts["--epsilon"])))
        cfg = Config(tolerance=opts.get("--tol", DEFAULT_TOL), seed=opts.get("--seed", 0), epsilon=eps,
                     out=opts.get("--out"))
    except (InputError, ValueError, TypeError, KeyError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    path, samples = opts.get("--input"), opts.get("--samples")
    try:
        if command == "pair":
            report, code = cmd_pair_classify(_load_object(path), cfg)
        elif command == "splitting":
            report, code = cmd_splitting_degree(_load_object(path), cfg)
        elif command == "hypersurface":
            report, code = cmd_hypersurface(_load_object(path), cfg)
        else:
            if samples is not None and path is not None:
                raise InputError("eds reads --input or draws --samples, not both")
            if samples is not None and not 0 <= samples <= MAX_SAMPLES:
                raise InputError(f"--samples must be nonnegative and at most {MAX_SAMPLES}")
            report, code = cmd_eds_verify(None if samples is not None else _load_payload(path), cfg, samples)
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
