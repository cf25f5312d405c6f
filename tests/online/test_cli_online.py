"""The ``memsched online`` CLI group end to end (no sockets: trace +
run + journal determinism), plus ``obs report --expect-arrivals``."""

import json

import pytest

from repro.cli import main

pytest.importorskip("numpy")

PLATFORM_ARGS = ["--blue", "2", "--red", "2",
                 "--mem-blue", "20000", "--mem-red", "20000"]


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    rc = main(["online", "trace", "-n", "6", "--seed", "3", "--rate", "2",
               "--tick", "2.5", "--size", "8", "-o", str(path)])
    assert rc == 0
    return path


class TestTrace:
    def test_trace_generation_is_byte_stable(self, tmp_path, trace_file):
        again = tmp_path / "again.jsonl"
        assert main(["online", "trace", "-n", "6", "--seed", "3",
                     "--rate", "2", "--tick", "2.5", "--size", "8",
                     "-o", str(again)]) == 0
        assert trace_file.read_bytes() == again.read_bytes()

    def test_trace_header_and_rows(self, trace_file):
        lines = trace_file.read_text().strip().split("\n")
        header = json.loads(lines[0])
        assert header == {"kind": "online-trace", "n_jobs": 6, "v": 1}
        assert len(lines) == 7

    def test_zero_release_flag(self, tmp_path):
        path = tmp_path / "z.jsonl"
        assert main(["online", "trace", "-n", "4", "--seed", "1",
                     "--zero-release", "-o", str(path)]) == 0
        rows = [json.loads(line) for line in
                path.read_text().strip().split("\n")[1:]]
        assert all(r["release"] == 0.0 for r in rows)


class TestRun:
    def test_run_reports_and_journals(self, tmp_path, trace_file, capsys):
        journal = tmp_path / "journal.jsonl"
        rc = main(["online", "run", str(trace_file), "--algo", "memheft",
                   *PLATFORM_ARGS, "--journal", str(journal)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "regret" in out and "p99" in out
        header = json.loads(journal.read_text().split("\n", 1)[0])
        assert header["kind"] == "online-journal"

    def test_run_journal_deterministic(self, tmp_path, trace_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["online", "run", str(trace_file),
                         *PLATFORM_ARGS, "--journal", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_reports_an_infeasible_clairvoyant(self, tmp_path,
                                                   capsys):
        """Every online round fits at 110 units per class but the offline
        pass over the whole union does not: the run still reports its own
        stats, writes its journal and succeeds."""
        trace = tmp_path / "ci.jsonl"
        assert main(["online", "trace", "-n", "12", "--seed", "3",
                     "--rate", "2.0", "--tick", "2.5",
                     "-o", str(trace)]) == 0
        journal = tmp_path / "journal.jsonl"
        rc = main(["online", "run", str(trace), "--mem-blue", "110",
                   "--mem-red", "110", "--journal", str(journal)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(clairvoyant infeasible)" in out and "regret" not in out
        assert "p99" in out
        rows = journal.read_text().strip().split("\n")
        assert len(rows) == 13

    def test_run_missing_trace_errors(self, tmp_path, capsys):
        rc = main(["online", "run", str(tmp_path / "missing.jsonl"),
                   *PLATFORM_ARGS])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err


class TestExpectArrivals:
    def run_traced(self, tmp_path, trace_file):
        span_trace = tmp_path / "spans.jsonl"
        assert main(["online", "run", str(trace_file), *PLATFORM_ARGS,
                     "--trace", str(span_trace)]) == 0
        return span_trace

    def test_all_arrivals_present(self, tmp_path, trace_file, capsys):
        span_trace = self.run_traced(tmp_path, trace_file)
        rc = main(["obs", "report", str(span_trace),
                   "--expect-arrivals", "6"])
        assert rc == 0
        assert "all 6 arrival decisions present" in capsys.readouterr().out

    def test_missing_arrivals_fail(self, tmp_path, trace_file, capsys):
        span_trace = self.run_traced(tmp_path, trace_file)
        rc = main(["obs", "report", str(span_trace),
                   "--expect-arrivals", "9"])
        assert rc == 1
        assert "no decision span" in capsys.readouterr().err
