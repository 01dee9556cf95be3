"""Benchmark of the pathgeom CLI.  Run from the root of the repository::

    python3 perfbench/run.py --workload eds-sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``README.md``): ``eds-sweep``, ``sphere-grid``, ``mixed-requests``.

With ``--trace 0`` the run is timed end to end: each request is a fresh
``python -m pathgeom.cli`` subprocess on ``src/``, sent one at a time (closed
loop, one client).  The workload's round of requests repeats until
``--seconds`` have passed, at least three times, and on ``mixed-requests``
until at least 100 requests have been timed, so that ten of them lie beyond
the 90th percentile.  Times are totals over the run divided by the rounds;
``setup_s`` is the median of nine no-work starts.

With ``--trace 1`` the same inputs run in-process through
``pathgeom.cli.main``, once untraced and twice traced, each pass in a fresh
interpreter; the traced pass gives the per-layer metrics (see ``layers.py``).
The two traced passes must give identical call counts.

Every output is checked (``verify.py``).  Lines starting with ``#`` are for
people; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import inputs
import layers
import verify

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 9
MIN_ROUNDS = 3
#: requests per run on multi-request workloads, so that ten lie beyond the tail
MIN_REQUESTS = 100
TAIL_PERCENTILE = 90
REQUEST_TIMEOUT_S = 60
LAYERS_TIMEOUT_S = 50

#: end-to-end metrics and their units, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: workloads whose item is the request; elsewhere it is the sample or the point
ITEM_IS_REQUEST = ("mixed-requests",)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: List[str]) -> CliResult:
    """One ``python -m pathgeom.cli`` subprocess: wall time and the child's CPU time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pathgeom.cli", *argv], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        code, out, err = -9, "", f"timed out after {REQUEST_TIMEOUT_S} s\n"
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return CliResult(code, out, err, wall, cpu)


def write_inputs(requests: List[inputs.Request], work: Path) -> List[List[str]]:
    """Write each request's payload under ``work``; the CLI arguments that read it."""
    argvs = []
    for i, req in enumerate(requests):
        path = work / f"{i:03d}-{req.id}.json"
        path.write_text(req.payload, encoding="utf-8")
        argvs.append([req.command, "--input", str(path)])
    return argvs


def item_statuses(workload: str, req: inputs.Request, statuses: List[str]) -> List[str]:
    """Statuses per workload item: on request-item workloads, the request's worst."""
    if workload in ITEM_IS_REQUEST:
        return [next((s for s in statuses if s != "ok"), "ok")]
    return statuses


def measure_setup() -> List[float]:
    """Start-up to ready: ``pathgeom eds --samples 0`` does no work and exits."""
    run_cli(["eds", "--samples", "0"])  # writes the bytecode cache once
    times = []
    for _ in range(SETUP_REPEATS):
        r = run_cli(["eds", "--samples", "0"])
        try:
            ready = r.code == 0 and verify.strict_json(r.stdout) == {"samples": [], "all_pass": True}
        except ValueError:
            ready = False
        if not ready:
            raise RuntimeError(f"the CLI does not start: exit {r.code}: {r.stderr.strip()[-300:]}")
        times.append(r.wall_s)
    return times


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    latencies: List[float]
    statuses: List[str]


def run_round(workload: str, requests: List[inputs.Request], argvs: List[List[str]]) -> Round:
    latencies, statuses, cpu = [], [], 0.0
    for req, argv in zip(requests, argvs):
        r = run_cli(argv)
        latencies.append(r.wall_s)
        cpu += r.cpu_s
        statuses += item_statuses(workload, req, verify.check(req, r.code, r.stdout, r.stderr))
    return Round(sum(latencies), cpu, latencies, statuses)


def nearest_rank(values: List[float], pct: int) -> Tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def timed_run(workload: str, requests, argvs, seconds: float, min_rounds: int = MIN_ROUNDS,
              min_requests: int = MIN_REQUESTS):
    """Set up, then repeat rounds until the time and the minimum counts are reached."""
    setup = measure_setup()
    multi = len(requests) > 1
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(workload, requests, argvs))
        timed = sum(len(r.latencies) for r in rounds)
        if time.perf_counter() >= deadline and len(rounds) >= min_rounds and (timed >= min_requests or not multi):
            break
    # Totals over the run, not medians of rounds: the host alternates between a
    # fast and a slow state for tens of seconds at a time, and the median of
    # short rounds jumps between the two (see README.md, "Run-to-run spread").
    total_wall = sum(r.wall_s for r in rounds)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": total_wall / len(rounds),
        "cpu_s": sum(r.cpu_s for r in rounds) / len(rounds),
        "items_per_s": sum(r.statuses.count("ok") for r in rounds) / total_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    walls = [r.wall_s for r in rounds]
    notes = [
        f"rounds {len(rounds)}, requests {timed}, setup runs {len(setup)}",
        "round walls (s): " + " ".join(f"{w:.3f}" for w in walls),
        f"round wall median {statistics.median(walls):.4f} s, fastest {min(walls):.4f} s",
        "setup times (s): " + " ".join(f"{t:.3f}" for t in setup),
    ]
    if multi:
        latencies = [x for r in rounds for x in r.latencies]
        tail, beyond = nearest_rank(latencies, TAIL_PERCENTILE)
        notes += [
            f"request_ms_p50 = {1000 * statistics.median(latencies):.6g} ms",
            f"request_ms_tail = {1000 * tail:.6g} ms (p{TAIL_PERCENTILE}: {beyond} of {len(latencies)} requests beyond it)",
        ]
    statuses = [s for r in rounds for s in r.statuses]
    return {k: (values[k], unit) for k, unit in END_TO_END}, statuses, notes


def run_layers_pass(manifest_path: Path, mode: str, spans_path: str = "") -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("layers.py")), "--manifest", str(manifest_path), "--mode", mode]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=LAYERS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"in-process {mode} pass took more than {LAYERS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"in-process {mode} pass failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not Path(out["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"pathgeom was imported from {out['module_file']}, not from {SRC}")
    return out


def traced_run(workload: str, requests, argvs, work: Path, seed: int):
    """One plain and two traced in-process passes; per-layer metrics from the first traced one."""
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(argvs), encoding="utf-8")
    spans_path = WORK / f"spans-{workload}-s{seed}.tsv"
    plain = run_layers_pass(manifest, "plain")
    traced = run_layers_pass(manifest, "traced", str(spans_path))
    again = run_layers_pass(manifest, "traced")
    passes = [
        [s for req, result in zip(requests, out["results"]) for s in item_statuses(workload, req, verify.check(req, *result))]
        for out in (plain, traced, again)
    ]
    # every pass is checked; the traced one is counted unless another went wrong
    statuses = next((p for p in passes if verify.first_wrong(p)), passes[1])
    samples = sum(r.items for r in requests if r.command == "eds")
    points = sum(r.items for r in requests if r.command == "hypersurface")
    metrics = layers.layer_metrics(traced, plain, samples, points)
    same_calls = traced["calls"] == again["calls"] and traced["rref_entries"] == again["rref_entries"]
    notes = [
        f"spans {traced['spans']} written to {os.path.relpath(spans_path, ROOT)}",
        f"calls identical across two traced passes: {same_calls}",
        f"tracing overhead {metrics['trace.overhead_s'][0]:.3f} s on "
        f"{metrics['trace.plain_wall_s'][0]:.3f} s untraced in-process wall",
    ]
    return metrics, statuses, notes, same_calls


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy_version, "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pathgeom CLI benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pathgeom" / "cli.py").is_file():
        print(f"perfbench: no src/pathgeom/cli.py under {ROOT}; run from the repository root", file=sys.stderr)
        return 2

    requests = inputs.build(args.workload, args.seed)
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        argvs = write_inputs(requests, work)
        if args.trace:
            metrics, statuses, notes, consistent = traced_run(args.workload, requests, argvs, work, args.seed)
        else:
            metrics, statuses, notes = timed_run(args.workload, requests, argvs, args.seconds)
            consistent = True
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = verify.tally(statuses)
    failed = len(statuses) - counts.get("ok", 0)
    wrong = verify.first_wrong(statuses)
    correct = wrong is None and consistent
    print("# env " + json.dumps(environment(args.workload, args.seed)))
    for note in notes:
        print("# " + note)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_ratio = {failed / len(statuses):.4f} ({failed} of {len(statuses)} items; {json.dumps(counts)})")
    for defect, (_, cause) in verify.KNOWN_DEFECTS.items():
        if defect in counts:
            print(f"# known defect {defect}: {cause}")
    if wrong:
        print(f"# first wrong output: {wrong}")
    result = {
        "correct": correct,
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
