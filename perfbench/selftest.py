"""Self-tests of the benchmark harness.  Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They run the CLI in-process on small inputs, so they take tens of seconds,
not the length of a benchmark run.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from pathgeom import cli, heisenberg_model, sphere_chart_model  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def execute(req, tmp_path):
    (argv,) = run.write_inputs([req], tmp_path)
    return layers.call_main(cli.main, argv)


def statuses_of(req, tmp_path):
    return verify.check(req, *execute(req, tmp_path))


def first(workload, kind, seed=0):
    return next(r for r in inputs.build(workload, seed) if r.kind == kind)


@pytest.fixture
def in_tmp(monkeypatch, tmp_path):
    """Harness state under tmp_path, and a single set-up repeat."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    (tmp_path / "work").mkdir()
    return tmp_path


# -- metric names --------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    fake = {"calls": {}, "self_s": {}, "rref_entries": 0, "import_s": 0.0, "wall_s": 0.0}
    units = {k: unit for k, (_, unit) in layers.layer_metrics(fake, fake, 0, 0).items()}
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(units.items())
    assert [w["name"] for w in BENCH["workloads"]] == list(inputs.WORKLOADS)


def test_tiny_timed_runs_emit_every_metric_and_seed_changes_no_name(in_tmp):
    names = []
    for seed in (1, 2):
        requests = inputs.build("mixed-requests", seed)[:3]
        argvs = run.write_inputs(requests, in_tmp)
        metrics, statuses, _ = run.timed_run("mixed-requests", requests, argvs, 0, min_rounds=1, min_requests=0)
        assert not verify.first_wrong(statuses)
        assert all(value > 0 for value, _ in metrics.values())
        names.append(list(metrics))
    assert names[0] == names[1] == [name for name, _ in run.END_TO_END]


def test_tiny_traced_run_emits_every_layer_metric(in_tmp):
    requests = [
        inputs.eds_request("eds", [inputs.eds_sample(random.Random(3))]),
        first("mixed-requests", "hypersurface-graph"),
        first("mixed-requests", "pair-elliptic"),
    ]
    argvs = run.write_inputs(requests, in_tmp)
    metrics, statuses, _, consistent = run.traced_run("mixed-requests", requests, argvs, in_tmp, 0)
    assert consistent and not verify.first_wrong(statuses)
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    assert metrics["eds.is_integral_element.calls_per_sample"][0] == 5
    assert metrics["pairs.normal_form.calls"][0] == 1


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in inputs.WORKLOADS:
        a, b, c = (inputs.build(workload, s) for s in (7, 7, 8))
        assert [r.payload for r in a] == [r.payload for r in b]
        assert [r.payload for r in a] != [r.payload for r in c]


def test_workload_shape_is_fixed_across_seeds():
    for seed in range(10):
        (eds,) = inputs.build("eds-sweep", seed)
        assert len({tuple(s.values()) for s in eds.expect["samples"]}) == inputs.EDS_SAMPLES
        (sphere,) = inputs.build("sphere-grid", seed)
        assert sum(sphere.expect["far"]) == inputs.SPHERE_FAR_POINTS
        kinds = [r.kind for r in inputs.build("mixed-requests", seed)]
        assert sorted(kinds) == sorted(k for k, n in inputs.MIXED_MIX for _ in range(n))


def test_builtin_maps_match_the_library():
    assert inputs.sphere_chart_json() == sphere_chart_model().to_json()
    assert inputs.heisenberg_json() == heisenberg_model().to_json()


# -- the output checker ----------------------------------------------------------


def test_checker_accepts_real_outputs(tmp_path):
    for workload in ("eds-sweep", "mixed-requests"):
        for req in inputs.build(workload, 0):
            statuses = statuses_of(req, tmp_path)
            assert not verify.first_wrong(statuses), (req.id, verify.first_wrong(statuses))
    sphere = first("sphere-grid", "hypersurface-sphere")
    sphere.expect["points"] = sphere.expect["points"][:4] + [["-19/1", "14/1", "1/1"]]
    sphere.expect["far"] = sphere.expect["far"][:4] + [True]
    payload = json.loads(sphere.payload)
    payload["points"] = sphere.expect["points"]
    sphere.payload, sphere.items = json.dumps(payload), 5
    statuses = statuses_of(sphere, tmp_path)
    assert not verify.first_wrong(statuses)
    assert statuses[-1] == "coframe_degenerate"


def test_known_defects_count_as_failures(tmp_path):
    assert statuses_of(first("mixed-requests", "malformed-nan-pair"), tmp_path) == ["nan_output"]
    assert statuses_of(first("mixed-requests", "malformed-nonobject-pair"), tmp_path) == ["traceback"]
    assert statuses_of(first("mixed-requests", "malformed-nonobject-splitting"), tmp_path) == ["traceback"]
    assert statuses_of(first("mixed-requests", "malformed-bad-term"), tmp_path) == ["ok"]


def small_eds():
    return inputs.eds_request("eds", [inputs.eds_sample(random.Random(5)) for _ in range(2)])


def test_checker_rejects_wrong_characters(tmp_path):
    req = small_eds()
    code, out, err = execute(req, tmp_path)
    doctored = out.replace("[0, 2, 4, 3]", "[0, 2, 3, 3]", 1)
    assert doctored != out
    assert verify.first_wrong(verify.check(req, code, doctored, err))


def test_checker_rejects_nan(tmp_path):
    req = small_eds()
    code, out, err = execute(req, tmp_path)
    for token in ("NaN", "nan", "Infinity"):
        doctored = out.replace('"codim": 8', f'"codim": {token}', 1)
        assert doctored != out
        assert verify.first_wrong(verify.check(req, code, doctored, err))


def test_checker_rejects_traceback(tmp_path):
    req = small_eds()
    code, out, err = execute(req, tmp_path)
    tb = 'Traceback (most recent call last):\n  File "cli.py", line 1\nValueError: boom\n'
    assert verify.first_wrong(verify.check(req, code, out, err + tb))
    assert verify.first_wrong(verify.check(req, 1, "", tb))


def test_checker_rejects_flipped_compatible(tmp_path):
    req = first("mixed-requests", "hypersurface-heisenberg")
    code, out, err = execute(req, tmp_path)
    doctored = out.replace('"compatible": true', '"compatible": false')
    assert doctored != out
    assert verify.check(req, code, out, err) == ["ok"]
    assert verify.first_wrong(verify.check(req, code, doctored, err))


def test_checker_rejects_a_report_of_the_wrong_shape(tmp_path):
    req = small_eds()
    assert verify.first_wrong(verify.check(req, 0, "[1, 2]\n", ""))
    assert verify.first_wrong(verify.check(req, 0, '{"samples": [1, 2], "all_pass": true}\n', ""))


# -- the command ------------------------------------------------------------------


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "eds-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
