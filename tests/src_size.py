"""The size of the library's source, per module and per command.

    python tests/src_size.py

The first table prints the lines and AST nodes of each module of
``src/pathgeom``, and their total.  The second prints, for each command, the
AST nodes that command compiles: the sum over the modules it executes.
Those are found as ``TestEachCommandLoadsItsOwnPipeline`` in
``tests/test_cli.py`` finds them: one small request runs in a fresh
interpreter, and the executed modules are the ``pathgeom`` entries of
``sys.modules`` that are plain modules, not lazy ones.  Without cached
bytecode a request compiles each of them, so fewer nodes there is less
start-up work.  The script only reports; it compares nothing with a bound.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pathgeom"
sys.path.insert(0, str(PACKAGE.parent))

from pathgeom import OMEGA0, PHI0, canonical_model, heisenberg_model  # noqa: E402

#: one small request per command, those of ``TestEachCommandLoadsItsOwnPipeline``
REQUESTS = {
    "pair": {"omega": OMEGA0.to_json(), "phi": (PHI0 * Fraction(7, 3) + OMEGA0).to_json()},
    "splitting": canonical_model(Fraction(2, 3)).to_json(),
    "hypersurface": {"map": heisenberg_model().to_json(), "points": [["0", "1/2", "1/3"]]},
    "eds": {"samples": [{"W1": "1", "W2": "2", "F1": "3", "F2": "4"}]},
}

#: runs the CLI on its arguments, then writes the executed pathgeom modules to stderr
PROBE = (
    "import sys, types; from pathgeom.cli import main; code = main(sys.argv[1:]); "
    "print(' '.join(n for n, m in sys.modules.items() "
    "if n.startswith('pathgeom') and type(m) is types.ModuleType), file=sys.stderr); "
    "sys.exit(code)"
)


def size(path: Path) -> tuple:
    """(lines, AST nodes) of one source file."""
    text = path.read_text(encoding="utf-8")
    return len(text.splitlines()), sum(1 for _ in ast.walk(ast.parse(text)))


def executed_modules(command: str, payload, tmp: str) -> list:
    path = Path(tmp) / f"{command}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", PROBE, command, "--input", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{command} request failed:\n{proc.stderr}")
    return sorted(proc.stderr.split())


def main() -> int:
    sizes = {path.stem: size(path) for path in sorted(PACKAGE.glob("*.py"))}
    print(f"{'module':<16}{'lines':>8}{'nodes':>8}")
    for name, (lines, nodes) in sizes.items():
        print(f"{name:<16}{lines:>8}{nodes:>8}")
    print(f"{'total':<16}{sum(s[0] for s in sizes.values()):>8}{sum(s[1] for s in sizes.values()):>8}")
    print()
    print(f"{'command':<16}{'nodes':>8}  modules executed")
    with tempfile.TemporaryDirectory() as tmp:
        for command, payload in REQUESTS.items():
            modules = executed_modules(command, payload, tmp)
            nodes = sum(sizes["__init__" if m == "pathgeom" else m.split(".", 1)[1]][1] for m in modules)
            print(f"{command:<16}{nodes:>8}  {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
