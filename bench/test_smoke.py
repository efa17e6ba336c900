"""Smoke test of the benchmark: every workload at a tiny size, names checked against BENCHMARK.json.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Result file merged over every workload and trace setting, plus each run's last stdout line."""
    path = tmp_path_factory.mktemp("bench") / "result.json"
    lines = {}
    for name in NAMES:
        for trace in (0, 1):
            done = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                        "--tiny", "--result", str(path))
            assert done.returncode == 0, done.stderr
            lines[name, trace] = json.loads(done.stdout.splitlines()[-1])
    return json.loads(path.read_text()), lines


def test_workloads_match_spec():
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WORKLOADS


def test_result_lines_follow_contract(runs):
    _, lines = runs
    for (name, trace), line in lines.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, (name, trace)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {m: v["unit"] for m, v in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in wanted}, (name, trace)


def test_result_file_names_and_blocks(runs):
    data, _ = runs
    assert sorted(data["workloads"]) == sorted(NAMES)
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas", "thread_env",
            "git_commit", "caveat"} <= set(data["machine"])
    for name, entry in data["workloads"].items():
        e2e = entry["trace0"]["metrics"]
        assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e), name
        assert entry["trace0"]["error_rate"] == 0 and entry["trace1"]["error_rate"] == 0
        layers = entry["trace1"]["layers"]
        assert set(layers["layers"]) == {"cli", "gates", "spectrum", "search", "power", "sampling"}
        assert not layers["absent_layers"] and not layers["missing_targets"]
        # self times add up to the traced wall time, up to the glue between operations
        assert abs(layers["unattributed_s"]) < 0.01 * layers["traced_wall_s"] + 1e-3, name
        assert entry["trace0"]["digests"] and entry["trace1"]["digests"]


def test_diff_of_a_result_with_itself(runs, tmp_path):
    data, _ = runs
    path = tmp_path / "same.json"
    path.write_text(json.dumps(data))
    done = subprocess.run([sys.executable, str(BENCH / "diff.py"), str(path), str(path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    verdicts = {line.split()[-1] for line in done.stdout.splitlines()[2:]}
    assert verdicts == {"same"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_missing_boundary_functions_make_a_layer_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import entpow.search
    import entpow.spectrum
    import spans

    for module in (entpow.spectrum, entpow.search):
        monkeypatch.delattr(module, "_haar_unitary_from")
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent_layers() == ["sampling"]
    assert len(tracer.missing) == 2
