import json

import pytest

from entpow import ep_closed, load_gate, make_cnot, save_gate
from entpow.cli import EXIT_IO, EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, main


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

    def test_env_threads_used(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("ENTPOW_THREADS", "3")
        a = tmp_path / "a.csv"
        run(capsys, "dist", "--d1", "2", "--d2", "2", "--samples", "300", "--bins", "10",
            "--seed", "2", "--out", str(a))
        monkeypatch.delenv("ENTPOW_THREADS")
        b = tmp_path / "b.csv"
        run(capsys, "dist", "--d1", "2", "--d2", "2", "--samples", "300", "--bins", "10",
            "--seed", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_threads(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTPOW_THREADS", "soon")
        code = main(["mc", "--gate", "cnot", "--samples", "50"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_threads_rejected(self, capsys, tmp_path, value):
        out = tmp_path / "h.csv"
        code = main(["dist", "--d", "2", "--samples", "50", "--threads", value, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_env_threads_rejected(self, capsys, monkeypatch, tmp_path, value):
        monkeypatch.setenv("ENTPOW_THREADS", value)
        out = tmp_path / "h.csv"
        assert main(["dist", "--d", "2", "--samples", "50", "--out", str(out)]) == EXIT_VALIDATION
        assert "ENTPOW_THREADS must be >= 1" in capsys.readouterr().err
        assert not out.exists()
        assert main(["optimize", "--d", "2", "--restarts", "1", "--iters", "10"]) == EXIT_VALIDATION
