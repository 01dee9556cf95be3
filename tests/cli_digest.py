"""One digest of the CLI's output on the benchmark's requests, to compare two trees.

    python tests/cli_digest.py

Builds the requests of every workload in ``perfbench/inputs.py`` for seeds
0 … 19, runs each through ``pathgeom.cli.main`` in this process, and prints the number of requests and the sha256 of their exit
codes, stdout and stderr, in order.  The ``pathgeom`` imported is the one
under this tree's ``src/``, so the same command from the root of two trees
prints the same line exactly when their output is byte-identical.  The
payloads are written to a temporary directory, whose path is replaced by
``<tmp>`` before hashing.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pathgeom.cli import main as cli_main  # noqa: E402


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


def main() -> int:
    inputs = load_inputs()
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in inputs.WORKLOADS:
            for seed in range(20):
                for i, req in enumerate(inputs.build(workload, seed)):
                    path = Path(tmp) / f"{workload}-{seed}-{i}.json"
                    path.write_text(req.payload, encoding="utf-8")
                    digest.update(run([req.command, "--input", str(path)], tmp))
                    count += 1
    print(f"{count} requests sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
