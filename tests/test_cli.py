"""End-to-end CLI tests (generate -> schedule -> validate -> bounds -> ilp)."""

import json
import re

import pytest

from repro.cli import main


@pytest.fixture
def dex_file(tmp_path):
    path = tmp_path / "dex.json"
    assert main(["generate", "--kind", "dex", "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_daggen_to_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        rc = main(["generate", "--kind", "daggen", "--size", "12",
                   "--seed", "3", "-o", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert len(data["tasks"]) == 12
        assert "12 tasks" in capsys.readouterr().out

    def test_lu_generation(self, tmp_path):
        path = tmp_path / "lu.json"
        assert main(["generate", "--kind", "lu", "--tiles", "3",
                     "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        assert any("getrf" in str(row["id"]) for row in data["tasks"])

    def test_dot_output(self, capsys):
        assert main(["generate", "--kind", "dex", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_summary_without_output(self, capsys):
        assert main(["generate", "--kind", "cholesky", "--tiles", "2"]) == 0
        assert "tasks" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, name", [
        (["--width", "0"], "width"),
        (["--width", "1.5"], "width"),
        (["--size", "0"], "size"),
        (["--density", "-1"], "density"),
        (["--density", "nan"], "density"),
        (["--jumps", "0"], "jumps"),
        (["--kind", "lu", "--tiles", "0"], "tiles"),
        (["--kind", "cholesky", "--tiles", "0"], "tiles"),
    ])
    def test_bad_parameter_is_a_one_line_error(self, flags, name, tmp_path,
                                               capsys):
        path = tmp_path / "g.json"
        assert main(["generate", *flags, "-o", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert name in captured.err
        assert captured.err.count("\n") == 1
        assert not path.exists()


class TestSchedule:
    @pytest.mark.parametrize("flags", [
        ["--mem-blue", "nan"],
        ["--mem-red", "nan", "--mem-blue", "5"],
        ["--procs", "1,1", "--mems", "5,nan"],
    ])
    def test_nan_capacity_is_invalid(self, dex_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", str(dex_file), "--algo", "memheft", *flags])
        assert str(exc.value).startswith("error: invalid ")
        assert "capacities" in str(exc.value)

    def test_schedule_reports_makespan(self, dex_file, capsys):
        rc = main(["schedule", str(dex_file), "--algo", "memheft",
                   "--mem-blue", "5", "--mem-red", "5", "--gantt", "--summary"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan  : 6" in out
        assert "#" in out          # gantt bars
        assert "blue mem" in out   # sparklines

    def test_schedule_events_flag(self, dex_file, capsys):
        rc = main(["schedule", str(dex_file), "--algo", "memheft",
                   "--mem-blue", "5", "--mem-red", "5", "--events"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "task_start" in out
        assert "comm_finish" in out

    def test_schedule_trace_file(self, dex_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(["schedule", str(dex_file), "--algo", "memheft",
                   "--mem-blue", "5", "--mem-red", "5",
                   "--trace", str(trace)])
        assert rc == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert any(row["name"] == "memheft" for row in lines)
        assert main(["obs", "report", str(trace)]) == 0
        assert "memheft" in capsys.readouterr().out

    def test_infeasible_exit_code(self, dex_file, capsys):
        rc = main(["schedule", str(dex_file), "--algo", "memminmin",
                   "--mem-blue", "3", "--mem-red", "3"])
        assert rc == 2
        assert "INFEASIBLE" in capsys.readouterr().err

    def test_schedule_round_trip_validates(self, dex_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        assert main(["schedule", str(dex_file), "--algo", "heft",
                     "-o", str(sched)]) == 0
        assert main(["validate", str(dex_file), str(sched)]) == 0
        assert "valid schedule" in capsys.readouterr().out

    def test_validate_rejects_corrupted(self, dex_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["schedule", str(dex_file), "--algo", "heft", "-o", str(sched)])
        data = json.loads(sched.read_text())
        data["placements"][0]["finish"] += 100.0
        sched.write_text(json.dumps(data))
        assert main(["validate", str(dex_file), str(sched)]) == 2
        assert "INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize("src, dst", [("T2", "T3"), ("T9", "T2")])
    def test_validate_rejects_stray_communication(self, dex_file, tmp_path,
                                                  capsys, src, dst):
        """A transfer on a non-edge (or on an unknown task) is caught."""
        sched = tmp_path / "s.json"
        main(["schedule", str(dex_file), "--algo", "heft", "-o", str(sched)])
        data = json.loads(sched.read_text())
        data["comms"].append({"src": src, "dst": dst,
                              "start": 0.0, "finish": 1.0})
        sched.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(dex_file), str(sched)]) == 2
        err = capsys.readouterr().err
        assert "INVALID" in err
        assert f"communication ({src!r}, {dst!r}) is not on an edge" in err

    @pytest.mark.parametrize("table, field", [
        ("placements", "start"), ("placements", "finish"),
        ("comms", "start"), ("comms", "finish")])
    def test_validate_rejects_nan_window(self, dex_file, tmp_path, capsys,
                                         table, field):
        sched = tmp_path / "s.json"
        main(["schedule", str(dex_file), "--algo", "heft",
              "--procs", "1,1", "-o", str(sched)])
        data = json.loads(sched.read_text())
        assert data[table]
        data[table][0][field] = float("nan")
        sched.write_text(json.dumps(data))    # writes a bare NaN token
        capsys.readouterr()
        assert main(["validate", str(dex_file), str(sched)]) == 2
        captured = capsys.readouterr()
        assert "INVALID" in captured.err and "window" in captured.err
        assert "valid schedule" not in captured.out


class TestBoundsAndILP:
    def test_bounds(self, dex_file, capsys):
        assert main(["bounds", str(dex_file)]) == 0
        out = capsys.readouterr().out
        assert "critical path : 5" in out
        assert "lower bound" in out

    def test_ilp_optimal(self, dex_file, capsys):
        rc = main(["ilp", str(dex_file), "--mem-blue", "5", "--mem-red", "5",
                   "--time-limit", "120"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal" in out
        assert "makespan    : 6" in out

    def test_ilp_prints_exactly_four_lines(self, dex_file, capfd):
        # capfd sees fd 1 itself, so a line HiGHS writes from C shows too.
        rc = main(["ilp", str(dex_file), "--mem-blue", "5", "--mem-red", "5"])
        assert rc == 0
        lines = capfd.readouterr().out.splitlines()
        assert lines[:3] == ["status      : optimal",
                             "makespan    : 6.0",
                             "lower bound : 6"]
        assert re.fullmatch(r"nodes       : \d+ \(\d+\.\d\ds\)", lines[3])
        assert len(lines) == 4

    def test_ilp_infeasible_exit_code(self, dex_file):
        rc = main(["ilp", str(dex_file), "--mem-blue", "3", "--mem-red", "3"])
        assert rc == 2

    def test_ilp_solver_error_is_one_line(self, dex_file, capsys,
                                          monkeypatch):
        def solve_error(*args, **kwargs):
            raise RuntimeError("HiGHS failed on the ILP: "
                               "(HiGHS Status 4: Solve error)")

        # cmd_ilp imports solve_ilp from repro.ilp on each call.
        monkeypatch.setattr("repro.ilp.solve_ilp", solve_error)
        rc = main(["ilp", str(dex_file), "--mem-blue", "5", "--mem-red", "5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: HiGHS failed on the ILP: "
                                "(HiGHS Status 4: Solve error)\n")


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "ci"]) == 0
        assert "gemm" in capsys.readouterr().out

    def test_fig11_ci(self, capsys):
        assert main(["experiment", "fig11", "--scale", "ci"]) == 0
        assert "memheft" in capsys.readouterr().out

    def test_fig12_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig12.csv"
        assert main(["experiment", "fig12", "--scale", "ci",
                     "--csv", str(csv_path)]) == 0
        text = csv_path.read_text()
        assert text.startswith("alpha,algorithm")
        assert "memminmin" in text

    def test_fig11_csv_export(self, tmp_path):
        csv_path = tmp_path / "fig11.csv"
        assert main(["experiment", "fig11", "--scale", "ci",
                     "--csv", str(csv_path)]) == 0
        assert "lower_bound" in csv_path.read_text()

    @pytest.mark.parametrize("name, value", [
        ("hosts", "a:1"), ("checkpoint", "ck.jsonl"), ("resume", None)])
    def test_removed_sweep_options_are_usage_errors(self, name, value,
                                                    capsys):
        argv = ["experiment", "fig11", "--scale", "ci", f"--{name}"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ([value] if value is not None else []))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"unrecognized arguments: --{name}" in err

    def test_table1_csv_unsupported(self, tmp_path):
        rc = main(["experiment", "table1", "--scale", "ci",
                   "--csv", str(tmp_path / "t.csv")])
        assert rc == 2


class TestServe:
    def test_cache_dir_is_a_usage_error(self, tmp_path, capsys,
                                        monkeypatch):
        # The schedule cache is in-memory only; there is no journal to
        # point the service at.  Should parsing ever accept the option,
        # fail instead of starting a server that never returns.
        monkeypatch.setattr("repro.service.server.serve",
                            lambda *a, **k: pytest.fail("serve started"))
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --cache-dir" in err
        assert list(tmp_path.iterdir()) == []


class TestSubmit:
    @pytest.fixture
    def live_server(self):
        from repro.service import ServiceApp, ThreadedServer
        with ThreadedServer(ServiceApp()) as srv:
            yield srv

    def test_submit_matches_direct_schedule(self, dex_file, live_server,
                                            tmp_path, capsys):
        served = tmp_path / "served.json"
        direct = tmp_path / "direct.json"
        rc = main(["submit", str(dex_file), "--port", str(live_server.port),
                   "--algo", "memheft", "--mem-blue", "5", "--mem-red", "5",
                   "-o", str(served)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan  : 6" in out
        assert "cache     : miss" in out
        assert main(["schedule", str(dex_file), "--algo", "memheft",
                     "--mem-blue", "5", "--mem-red", "5",
                     "-o", str(direct)]) == 0
        assert json.loads(served.read_text()) == json.loads(direct.read_text())

    def test_submit_second_time_hits_cache(self, dex_file, live_server,
                                           capsys):
        args = ["submit", str(dex_file), "--port", str(live_server.port),
                "--mem-blue", "5", "--mem-red", "5"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cache     : hit" in capsys.readouterr().out

    def test_submit_many_graphs_uses_batch(self, dex_file, live_server,
                                           tmp_path, capsys):
        rc = main(["submit", str(dex_file), str(dex_file),
                   "--port", str(live_server.port),
                   "--mem-blue", "5", "--mem-red", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("makespan=6") == 2
        assert "cache=hit" in out   # the duplicate dedups inside the batch

    def test_submit_infeasible_exit_code(self, dex_file, live_server, capsys):
        rc = main(["submit", str(dex_file), "--port", str(live_server.port),
                   "--mem-blue", "0.5", "--mem-red", "0.5"])
        assert rc == 2
        assert "INFEASIBLE" in capsys.readouterr().err

    def test_submit_unreachable_service(self, dex_file, capsys):
        rc = main(["submit", str(dex_file), "--port", "1",
                   "--wait", "0.2", "--timeout", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSpeedsFlag:
    def test_schedule_with_speeds(self, dex_file, capsys):
        rc = main(["schedule", str(dex_file), "--algo", "memheft",
                   "--blue", "1", "--red", "1", "--speeds", "1,2"])
        assert rc == 0
        assert "makespan" in capsys.readouterr().out

    def test_speeds_written_into_schedule_json(self, dex_file, tmp_path,
                                               capsys):
        out = tmp_path / "sched.json"
        rc = main(["schedule", str(dex_file), "--algo", "memheft",
                   "--blue", "1", "--red", "1", "--speeds", "1,2",
                   "-o", str(out)])
        assert rc == 0
        import json as json_mod
        data = json_mod.loads(out.read_text())
        assert data["platform"]["speeds"] == [1.0, 2.0]
        # And the saved schedule revalidates against the saved platform.
        assert main(["validate", str(dex_file), str(out)]) == 0

    def test_speeds_with_generic_procs(self, dex_file, capsys):
        rc = main(["schedule", str(dex_file), "--algo", "memminmin",
                   "--procs", "1,1", "--mems", "inf,inf",
                   "--speeds", "2,0.5"])
        assert rc == 0

    def test_bad_speeds_rejected(self, dex_file):
        import pytest as pytest_mod
        with pytest_mod.raises(SystemExit):
            main(["schedule", str(dex_file), "--speeds", "1,banana"])
        with pytest_mod.raises(SystemExit):
            main(["schedule", str(dex_file), "--speeds", "1,2,3"])

    def test_ilp_rejects_heterogeneous_platform(self, dex_file, capsys):
        rc = main(["ilp", str(dex_file), "--blue", "1", "--red", "1",
                   "--speeds", "1,2"])
        assert rc == 2
        assert "homogeneous" in capsys.readouterr().err

    def test_bounds_speed_aware(self, dex_file, capsys):
        assert main(["bounds", str(dex_file), "--blue", "1", "--red", "1",
                     "--speeds", "4,4"]) == 0
        fast = capsys.readouterr().out
        assert main(["bounds", str(dex_file), "--blue", "1", "--red",
                     "1"]) == 0
        plain = capsys.readouterr().out
        assert fast != plain
