import itertools
import json
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import entpow.cli as cli
from entpow import Bipartition, ep_closed, load_gate, make_cnot, make_identity, make_swap, save_gate
from entpow.cli import EXIT_IO, EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, GATES, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_cnot(self, capsys):
        code, out = run(capsys, "eval", "--gate", "cnot")
        assert code == EXIT_OK
        assert "0.222222222222" in out
        assert "upper_bound  = 0.333333333333" in out

    def test_identity(self, capsys):
        code, out = run(capsys, "eval", "--gate", "identity", "--d1", "3", "--d2", "3")
        assert code == EXIT_OK
        assert "value        = 0.000000000000" in out

    def test_additive_perm(self, capsys):
        code, out = run(capsys, "eval", "--gate", "additive-perm", "--d", "5")
        assert code == EXIT_OK
        assert "0.666666666667" in out

    def test_oracle_method_agrees(self, capsys):
        _, closed = run(capsys, "eval", "--gate", "cnot")
        _, oracle = run(capsys, "eval", "--gate", "cnot", "--method", "oracle")
        pick = lambda text: [l for l in text.splitlines() if l.startswith("value")][0]
        assert pick(closed) == pick(oracle)

    def test_gate_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        save_gate(make_cnot(), path)
        code, out = run(capsys, "eval", "--file", str(path))
        assert code == EXIT_OK
        assert "0.222222222222" in out

    def test_out_report_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _ = run(capsys, "eval", "--gate", "cnot", "--out", str(out_path))
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        assert report["value"] == pytest.approx(2 / 9)
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"] == "eval"
        assert manifest["part"] == {"d1": 2, "d2": 2}

    def test_missing_gate(self, capsys):
        code, _ = run(capsys, "eval")
        assert code == EXIT_VALIDATION

    def test_non_unitary_file_names_norm(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d1": 2, "d2": 2, "matrix": [[[1, 0]] * 4] * 4}))
        code = main(["eval", "--file", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "not unitary" in err and "|U^dag U - 1|" in err

    @pytest.mark.parametrize("d1, d2", [(4.9, 1), (True, 4), ("2", 2), (None, 4)])
    def test_non_integer_dimension_in_gate_file(self, capsys, tmp_path, d1, d2):
        path = tmp_path / "eye.json"
        eye = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        path.write_text(json.dumps({"d1": d1, "d2": d2, "matrix": eye}))
        assert main(["eval", "--file", str(path)]) == EXIT_VALIDATION
        assert "d1 must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [[True, False], [0, 0, 99]], ids=json.dumps)
    def test_malformed_entry_in_gate_file(self, capsys, tmp_path, bad):
        path = tmp_path / "eye.json"
        eye = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        eye[0][3] = bad
        path.write_text(json.dumps({"d1": 2, "d2": 2, "matrix": eye}))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["eval", "--file", str(path), "--out", str(out / "r.json")]) == EXIT_VALIDATION
        assert "matrix entry at row 0, column 3" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_additive_perm_even_d(self, capsys):
        code = main(["eval", "--gate", "additive-perm", "--d", "4"])
        assert code == EXIT_VALIDATION


class TestMc:
    def test_cnot_estimate(self, capsys, tmp_path):
        out_path = tmp_path / "mc.json"
        code, out = run(capsys, "mc", "--gate", "cnot", "--samples", "20000",
                        "--seed", "7", "--out", str(out_path))
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())
        mc = payload["monte_carlo"]
        assert abs(mc["value"] - 2 / 9) < 4 * mc["mc_stderr"]
        assert payload["closed_form"]["value"] == pytest.approx(2 / 9)
        assert "closed_form" in out

    def test_identity_exact_zero(self, capsys):
        code, out = run(capsys, "mc", "--gate", "identity", "--d1", "2", "--d2", "2",
                        "--samples", "200")
        assert code == EXIT_OK
        assert "mc_estimate   = 0.000000000" in out or "mc_estimate   = -0.000000000" in out

    def test_swap_near_zero(self, capsys, tmp_path):
        out_path = tmp_path / "mc.json"
        code, _ = run(capsys, "mc", "--gate", "swap", "--d", "2", "--samples", "2000",
                      "--seed", "3", "--out", str(out_path))
        assert code == EXIT_OK
        mc = json.loads(out_path.read_text())["monte_carlo"]
        assert abs(mc["value"]) <= 4 * max(mc["mc_stderr"], 1e-15)


    def test_one_sample_writes_nothing(self, capsys, tmp_path):
        # one sample has no standard error, and JSON has no Infinity to record it
        code = main(["mc", "--gate", "cnot", "--samples", "1", "--out", str(tmp_path / "mc.json")])
        assert code == EXIT_VALIDATION
        assert "n_samples must be >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestDist:
    def test_csv_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "h.csv"
        code, _ = run(capsys, "dist", "--d1", "2", "--d2", "2", "--samples", "1000",
                      "--bins", "25", "--seed", "1", "--out", str(out_path))
        assert code == EXIT_OK
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "bin_left,bin_right,count,density"
        assert len(rows) == 26
        counts = [int(r.split(",")[2]) for r in rows[1:]]
        assert sum(counts) == 1000
        assert (tmp_path / "h.csv.manifest.json").exists()

    def test_reproducible_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "dist", "--d1", "2", "--d2", "3", "--samples", "500", "--bins", "20",
            "--seed", "5", "--out", str(a))
        run(capsys, "dist", "--d1", "2", "--d2", "3", "--samples", "500", "--bins", "20",
            "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_replay_reproduces_bytes(self, capsys, tmp_path):
        first = tmp_path / "h.csv"
        run(capsys, "dist", "--d1", "2", "--d2", "2", "--samples", "400", "--bins", "10",
            "--seed", "9", "--out", str(first))
        replayed = tmp_path / "h2.csv"
        code, _ = run(capsys, "replay", str(first) + ".manifest.json", "--out", str(replayed))
        assert code == EXIT_OK
        assert first.read_bytes() == replayed.read_bytes()

    def test_failed_block_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # 10 gates per block at 2x2 make one ep_values call per block; the 21st fails
        import entpow.spectrum
        from entpow.errors import ValidationError

        calls = itertools.count()
        real = entpow.spectrum.ep_values

        def failing(stack, part):
            if next(calls) == 20:
                raise ValidationError("injected")
            return real(stack, part)

        monkeypatch.setattr(entpow.spectrum, "ep_values", failing)
        monkeypatch.setattr(entpow.spectrum, "_cpu_count", lambda: 2)
        code = main(["dist", "--d", "2", "--samples", "640", "--bins", "10",
                     "--out", str(tmp_path / "h.csv")])
        assert code == EXIT_VALIDATION
        assert "injected" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path(self, capsys):
        code = main(["dist", "--d1", "2", "--d2", "2", "--samples", "10", "--bins", "5",
                     "--out", "/nonexistent-dir/h.csv"])
        assert code == EXIT_IO


class TestOptimize:
    def test_writes_gate_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "best.json"
        code, out = run(capsys, "optimize", "--d1", "2", "--d2", "2", "--restarts", "3",
                        "--iters", "400", "--seed", "7", "--out", str(out_path))
        assert code == EXIT_OK
        gate = load_gate(out_path)
        printed = float([l for l in out.splitlines() if l.startswith("best_value")][0].split("=")[1])
        assert ep_closed(gate).value == pytest.approx(printed, abs=1e-9)
        assert (tmp_path / "best.json.manifest.json").exists()

    def test_replay_reproduces_gate(self, capsys, tmp_path):
        first = tmp_path / "best.json"
        run(capsys, "optimize", "--d1", "2", "--d2", "2", "--restarts", "2",
            "--iters", "200", "--seed", "11", "--out", str(first))
        second = tmp_path / "best2.json"
        code, _ = run(capsys, "replay", str(first) + ".manifest.json", "--out", str(second))
        assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_records_no_step_knobs(self, capsys, tmp_path):
        out = tmp_path / "best.json"
        run(capsys, "optimize", "--d", "2", "--restarts", "1", "--iters", "20", "--out", str(out))
        params = json.loads((tmp_path / "best.json.manifest.json").read_text())["parameters"]
        assert set(params) == {"restarts", "iters", "out"}

    def test_hill_climb_manifest_does_not_replay(self, capsys, tmp_path):
        # a manifest written before gradient ascent replaced the hill climb, and so
        # before manifests recorded argv
        manifest = tmp_path / "old.json.manifest.json"
        manifest.write_text(json.dumps({
            "command": "optimize", "part": {"d1": 2, "d2": 2},
            "seed": {"master_seed": 11, "stream_index": 0},
            "parameters": {"restarts": 2, "iters": 200, "step": 0.8, "decay": 0.995,
                           "threads": None, "out": str(tmp_path / "old.json")},
            "tool_version": "0.1.0", "wall_time": 0.1,
        }))
        code = main(["replay", str(manifest)])
        assert code == EXIT_VALIDATION
        assert "records no argv" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json.manifest.json"]

    def test_step_flags_are_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--d", "2", "--step", "0.5"])
        assert exc.value.code == 2


class TestReplaySquareGates:
    @pytest.mark.parametrize("argv", [
        ["eval", "--gate", "swap", "--d1", "3", "--d2", "3"],
        ["mc", "--gate", "controlled-clock", "--d1", "3", "--d2", "3", "--samples", "500"],
    ])
    def test_square_gate_given_by_d1_d2_replays(self, capsys, tmp_path, argv):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        code, _ = run(capsys, *argv, "--out", str(first))
        assert code == EXIT_OK
        code, _ = run(capsys, "replay", str(first) + ".manifest.json", "--out", str(second))
        assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        recorded = json.loads((tmp_path / "a.json.manifest.json").read_text())["parameters"]
        replayed = json.loads((tmp_path / "b.json.manifest.json").read_text())["parameters"]
        assert {k: v for k, v in recorded.items() if k != "out"} == \
               {k: v for k, v in replayed.items() if k != "out"}


#: dimension options and the known exact value of every ``--gate`` choice
GATE_VALUES = {
    "identity": (["--d1", "2", "--d2", "3"], 0.0),
    "swap": (["--d", "3"], 0.0),
    "cnot": ([], 2 / 9),
    "controlled-clock": (["--d", "3"], 3 * 2 / 4**2),     # d(d-1)/(d+1)^2
    "controlled-shift": (["--d", "4"], 4 * 3 / 5**2),
    "additive-perm": (["--d", "5"], 4 / 6),               # (d-1)/(d+1)
}


class TestGateTable:
    @pytest.mark.parametrize("name", list(GATES))
    def test_exact_value(self, capsys, name):
        dims, expected = GATE_VALUES[name]
        code, out = run(capsys, "eval", "--gate", name, *dims)
        assert code == EXIT_OK
        assert f"value        = {expected:.12f}" in out

    def test_unknown_gate_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gate", "toffoli"])
        assert exc.value.code == 2


def _must_not_run(*args, **kwargs):
    raise AssertionError("called past the dimension cap")


class TestDimensionCap:
    @pytest.mark.parametrize("argv", [
        ["eval", "--gate", "identity", "--d", "1000"],
        ["eval", "--gate", "swap", "--d1", "1000", "--d2", "1000"],
        ["eval", "--gate", "additive-perm", "--d", "1001"],
        ["mc", "--gate", "controlled-clock", "--d", "1000"],
        ["mc", "--gate", "controlled-shift", "--d", "1000"],
        ["dist", "--d1", "1000", "--d2", "3"],
        ["optimize", "--d", "1000"],
    ])
    def test_refused_before_any_constructor(self, capsys, monkeypatch, tmp_path, argv):
        for name in ("make_identity", "make_swap", "make_controlled_family", "shift_matrix",
                     "make_additive_permutation", "sample_q", "maximize_ep"):
            monkeypatch.setattr(cli, name, _must_not_run)
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_RESOURCE
        assert "exceeds the cap of 2000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cap_is_inclusive(self):
        args = Namespace(d=None, d1=1, d2=2000)
        assert cli._dims_from_args(args) == (1, 2000)
        with pytest.raises(cli.ResourceLimitError):
            cli._dims_from_args(Namespace(d=None, d1=1, d2=2001))

    def test_oversized_gate_file(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d1": 1000, "d2": 1000, "matrix": []}))
        assert main(["eval", "--file", str(path)]) == EXIT_RESOURCE
        assert main(["verify", "--file", str(path)]) == EXIT_RESOURCE

    def test_dense_oracle_cap(self, capsys, tmp_path):
        argv = ["eval", "--gate", "swap", "--d", "7", "--method", "oracle"]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == EXIT_RESOURCE
        assert "dense oracle supports d1*d2 <= 36, got 49" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


#: one run of every output-writing command; "{gate}" stands for a saved CNOT gate file
ROUND_TRIPS = {
    "eval-closed": ["eval", "--gate", "cnot"],
    "eval-oracle": ["eval", "--gate", "controlled-clock", "--d", "3", "--method", "oracle"],
    "eval-file": ["eval", "--file", "{gate}"],
    "mc": ["mc", "--gate", "controlled-shift", "--d1", "3", "--d2", "3", "--samples", "400",
           "--seed", "3"],
    "dist-d": ["dist", "--d", "2", "--samples", "300", "--bins", "10", "--seed", "4"],
    "dist-d1-d2": ["dist", "--d1", "2", "--d2", "3", "--samples", "300", "--bins", "12",
                   "--seed", "5"],
    "optimize": ["optimize", "--d1", "2", "--d2", "2", "--restarts", "2", "--iters", "40",
                 "--seed", "6"],
}


def _manifest_without_out(out) -> dict:
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    del manifest["wall_time"], manifest["parameters"]["out"]
    at = manifest["argv"].index("--out")
    assert manifest["argv"][at + 1] == str(out)
    del manifest["argv"][at:at + 2]
    return manifest


class TestManifestRoundTrip:
    @pytest.mark.parametrize("case", list(ROUND_TRIPS))
    def test_replay_reproduces_output_and_manifest(self, capsys, tmp_path, case):
        gate = tmp_path / "gate.json"
        save_gate(make_cnot(), gate)
        argv = [str(gate) if a == "{gate}" else a for a in ROUND_TRIPS[case]]
        first, second = tmp_path / "first.out", tmp_path / "second.out"
        assert main(argv + ["--out", str(first)]) == EXIT_OK
        assert main(["replay", f"{first}.manifest.json", "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        assert _manifest_without_out(first) == _manifest_without_out(second)

    def test_argv_records_defaults(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        run(capsys, "eval", "--gate", "cnot", "--out", str(out))
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["argv"] == ["eval", "--gate", "cnot", "--method", "closed", "--out", str(out)]
        assert manifest["seed"] is None

    def test_seed_block_holds_the_master_seed(self, capsys, tmp_path):
        out = tmp_path / "h.csv"
        run(capsys, "dist", "--d", "2", "--samples", "50", "--bins", "5", "--out", str(out))
        manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
        assert manifest["seed"] == {"master_seed": 0}
        assert manifest["argv"] == ["dist", "--d", "2", "--seed", "0", "--samples", "50",
                                    "--bins", "5", "--out", str(out)]

    def test_replay_of_stream_manifest_refused(self, capsys, tmp_path):
        # a manifest written while --stream still existed
        manifest = tmp_path / "old.csv.manifest.json"
        manifest.write_text(json.dumps({"argv": [
            "dist", "--d", "2", "--seed", "0", "--stream", "0", "--samples", "50", "--bins", "5",
            "--out", str(tmp_path / "old.csv")]}))
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(manifest), "--out", str(tmp_path / "new.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stream 0" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv.manifest.json"]


class TestAtomicOutputs:
    @pytest.mark.parametrize("case", list(ROUND_TRIPS))
    @pytest.mark.parametrize("existing", [b"old output\n", None], ids=["over-old-out", "no-old-out"])
    def test_manifest_path_is_a_directory(self, capsys, tmp_path, case, existing):
        gate = tmp_path / "gate.json"
        save_gate(make_cnot(), gate)
        argv = [str(gate) if a == "{gate}" else a for a in ROUND_TRIPS[case]]
        out = tmp_path / "out.json"
        if existing is not None:
            out.write_bytes(existing)
        (tmp_path / "out.json.manifest.json").mkdir()
        assert main(argv + ["--out", str(out)]) == EXIT_IO
        assert "is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["gate.json", "out.json.manifest.json"] + (["out.json"] if existing else []))
        if existing is not None:
            assert out.read_bytes() == existing

    def test_failed_manifest_write_keeps_the_old_pair(self, capsys, monkeypatch, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--gate", "swap", "--d", "2", "--out", str(out)]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        write_text = Path.write_text

        def disk_full_for_manifests(self, *args, **kwargs):
            if "manifest" in self.name:
                write_text(self, "{")
                raise OSError(28, "No space left on device")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full_for_manifests)
        assert main(["eval", "--gate", "cnot", "--out", str(out)]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


    @pytest.mark.parametrize("existing", [True, False], ids=["over-old-pair", "no-old-pair"])
    def test_failed_manifest_move_restores_the_old_output(self, capsys, monkeypatch, tmp_path,
                                                          existing):
        out = tmp_path / "r.json"
        if existing:
            assert main(["eval", "--gate", "swap", "--d", "2", "--out", str(out)]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replace, calls = os.replace, []

        def second_call_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(5, "Input/output error")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_call_fails)
        assert main(["eval", "--gate", "cnot", "--out", str(out)]) == EXIT_IO
        assert "Input/output error" in capsys.readouterr().err
        assert calls[:2] == [out, Path(f"{out}.manifest.json")]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestConflictingOptions:
    def test_d_with_d1_d2_refused(self, capsys, tmp_path):
        code = main(["dist", "--d", "2", "--d1", "3", "--d2", "5", "--samples", "50",
                     "--out", str(tmp_path / "h.csv")])
        assert code == EXIT_VALIDATION
        assert "give --d or --d1/--d2, not both" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gate_with_file_refused(self, capsys, tmp_path):
        path = tmp_path / "swap3.json"
        save_gate(make_swap(3), path)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gate", "cnot", "--file", str(path), "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "not allowed with argument --gate" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["swap3.json"]

    @pytest.mark.parametrize("command", ["eval", "mc"])
    @pytest.mark.parametrize("source", [["--file", "{gate}"], ["--gate", "cnot"]],
                             ids=["file", "cnot"])
    @pytest.mark.parametrize("option", ["--d", "--d1", "--d2"])
    def test_dimensions_refused_where_the_gate_fixes_them(self, capsys, tmp_path, command,
                                                          source, option):
        path = tmp_path / "id3.json"
        save_gate(make_identity(Bipartition(3, 3)), path)
        argv = [command] + [str(path) if a == "{gate}" else a for a in source]
        code = main(argv + [option, "5", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_VALIDATION
        assert "fixes the dimensions" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["id3.json"]


class TestReplayInput:
    @pytest.mark.parametrize("content,message", [
        ([1, 2], "not a JSON object"),
        ({"command": "eval", "part": {"d1": 2, "d2": 2}, "parameters": {"gate": "cnot"}},
         "records no argv"),
        ({"argv": "eval --gate cnot"}, "list of strings"),
        ({"argv": ["eval", "--gate", 3]}, "list of strings"),
        ({"argv": []}, "must start with one of"),
        ({"argv": ["verify"]}, "must start with one of"),
        ({"argv": ["replay", "{self}"]}, "must start with one of"),
    ])
    def test_refused_and_nothing_written(self, capsys, tmp_path, content, message):
        manifest = tmp_path / "m.json.manifest.json"
        text = json.dumps(content).replace("{self}", str(manifest))
        manifest.write_text(text)
        assert main(["replay", str(manifest), "--out", str(tmp_path / "x.json")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["m.json.manifest.json"]


class TestVerify:
    def test_fresh_build_passes(self, capsys):
        code, out = run(capsys, "verify")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_extra_gate_included(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        save_gate(make_cnot(), path)
        code, out = run(capsys, "verify", "--file", str(path))
        assert code == EXIT_OK
        assert "user gate" in out

    def test_range_checks_print_the_signed_excess(self, capsys, tmp_path):
        # every gate lies strictly inside its range, so the largest excess is negative
        path = tmp_path / "g.json"
        save_gate(make_cnot(), path)
        code, out = run(capsys, "verify", "--file", str(path))
        assert code == EXIT_OK
        lines = [l for l in out.splitlines()
                 if any(k in l for k in ("upper bound respected", "value within"))]
        assert len(lines) == 6
        assert all(": deviation -" in l for l in lines), lines

    def test_fixed_state_range_check_can_fail(self, capsys, monkeypatch):
        import entpow.selfcheck

        monkeypatch.setattr(entpow.selfcheck, "partial_ep", lambda fam: -1.0)
        code, out = run(capsys, "verify")
        assert code == EXIT_VALIDATION
        assert out.count("[FAIL] fixed-state value within [0, partial bound]") == 2
        assert out.splitlines()[-1] == "47/49 identity checks passed"

    def test_corrupted_gate_file_fails(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"d1": 2, "d2": 2, "matrix": [[[1, 0]] * 4] * 4}))
        code = main(["verify", "--file", str(path)])
        assert code != EXIT_OK


class TestExitCodes:
    def test_resource_error_exit(self, monkeypatch, capsys):
        import entpow.cli as cli
        from entpow.errors import ResourceLimitError

        monkeypatch.setattr(cli, "run_self_checks",
                            lambda extra_gate=None: (_ for _ in ()).throw(ResourceLimitError("cap")))
        assert cli.main(["verify"]) == EXIT_RESOURCE

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 22.4 GiB"), "error: Unable to allocate 22.4 GiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ])
    def test_memory_error_exit(self, monkeypatch, capsys, tmp_path, exc, message):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(cli, "sample_q", exhausted)
        code = main(["dist", "--d", "2", "--samples", "10", "--bins", "3000000000",
                     "--out", str(tmp_path / "h.csv")])
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == []


class TestNoWorkerCount:
    # each argv ends in an option the command no longer has: --threads, --stream, or
    # --seed on eval, which samples nothing
    @pytest.mark.parametrize("argv", [
        ["mc", "--gate", "cnot", "--samples", "50", "--threads", "2"],
        ["dist", "--d", "2", "--samples", "50", "--threads", "2"],
        ["optimize", "--d", "2", "--restarts", "1", "--iters", "10", "--threads", "2"],
        ["mc", "--gate", "cnot", "--samples", "50", "--stream", "1"],
        ["dist", "--d", "2", "--samples", "50", "--stream", "1"],
        ["optimize", "--d", "2", "--restarts", "1", "--iters", "10", "--stream", "1"],
        ["eval", "--gate", "cnot", "--seed", "123"],
    ])
    def test_threads_flag_rejected_by_argparse(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["dist", "--d1", "2", "--d2", "3", "--samples", "300", "--bins", "10", "--seed", "2"],
        ["mc", "--gate", "controlled-clock", "--d", "3", "--samples", "300", "--seed", "2"],
    ])
    def test_env_variable_ignored(self, capsys, monkeypatch, tmp_path, argv):
        out = tmp_path / "out"
        monkeypatch.setenv("ENTPOW_THREADS", "soon")
        code, printed = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_OK
        written = out.read_bytes()
        monkeypatch.delenv("ENTPOW_THREADS")
        assert run(capsys, *argv, "--out", str(out)) == (EXIT_OK, printed)
        assert out.read_bytes() == written

    def test_replay_of_threads_manifest_refused(self, capsys, tmp_path):
        manifest = tmp_path / "old.json.manifest.json"
        manifest.write_text(json.dumps({"argv": [
            "optimize", "--d", "2", "--seed", "0", "--restarts", "1",
            "--iters", "10", "--threads", "2", "--out", str(tmp_path / "old.json")]}))
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(manifest), "--out", str(tmp_path / "new.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["old.json.manifest.json"]


def test_import_leaves_concurrent_futures_unloaded():
    # its cold import takes about 9 ms, which every command would pay at start-up
    code = "import sys, entpow.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.stdout.strip() == "False", done.stderr
