"""Tests for the table/experiment harness."""

import pytest

from repro.errors import CheckError
from repro.harness import (
    REGISTRY,
    format_table,
    paper_row,
    run_experiment,
    table1,
    table3,
)
from repro.harness.paper_data import TABLE_II


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(("a", "bb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_paper_reference_lookup(self):
        row = paper_row("mmr14")
        assert row.locations == 17 and row.rules == 29
        assert row.termination_time is None  # the CE row
        with pytest.raises(KeyError):
            paper_row("hotstuff")

    def test_reference_table_has_eight_rows(self):
        assert len(TABLE_II) == 8


class TestTables:
    def test_table1_lists_all_mmr14_rules(self):
        text = table1()
        for name in [f"r{i}" for i in range(1, 28)]:
            assert name in text

    def test_table3_matches_paper_formulas(self):
        text = table3()
        assert "A F (EX{D0}) → G (¬EX{E1, D1})" in text
        assert "A ALL{I0} → G (¬EX{E1, D1})" in text
        assert "A F (EX{Nbot}) → G (¬EX{M0, M1})" in text


class TestExperimentRegistry:
    def test_registry_covers_tables_and_figures(self):
        idents = set(REGISTRY)
        for required in ("table1", "table2", "table3", "table4", "fig4", "attack"):
            assert required in idents

    def test_unknown_experiment_rejected(self):
        with pytest.raises(CheckError):
            run_experiment("table9")

    def test_quick_experiments_run(self):
        assert "r21" in run_experiment("table1")
        assert "digraph" in run_experiment("fig4")
        assert "Inv1" in run_experiment("table3") or "(Inv1)" in run_experiment("table3")


class TestCoinCli:
    """The --coin surface of verify/sweep (local paths)."""

    def test_verify_coin_flag_flips_the_verdict(self, capsys):
        from repro.harness.__main__ import main

        assert main(["harness", "verify", "cc85a", "--target", "agreement",
                     "--max-states", "20000", "--json"]) == 0
        import json as _json
        holds = _json.loads(capsys.readouterr().out)
        assert holds["verdict"] == "holds"
        assert "coin" not in holds["task_id"]

        assert main(["harness", "verify", "cc85a", "--target", "agreement",
                     "--coin", "disagreeing:1/8", "--max-states", "20000",
                     "--json"]) == 0
        split = _json.loads(capsys.readouterr().out)
        assert split["verdict"] == "violated"
        assert "coin=disagreeing:1/8" in split["task_id"]

    def test_sweep_coin_axis(self, capsys):
        from repro.harness.__main__ import main

        assert main(["harness", "sweep", "--protocols", "cc85a",
                     "--targets", "agreement", "--coin", "perfect",
                     "--coin", "biased:1/4", "--max-states", "20000",
                     "--json"]) == 0
        import json as _json
        report = _json.loads(capsys.readouterr().out)
        ids = [r["task_id"] for r in report["results"]]
        assert ids == [
            "cc85a[f=1,n=4,t=1]/agreement@explicit",
            "cc85a[f=1,n=4,t=1;coin=biased:1/4]/agreement@explicit",
        ]

    def test_bad_coin_spec_is_a_usage_error(self):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit, match="bad --coin"):
            main(["harness", "verify", "cc85a", "--coin", "weighted:1/4"])

    def test_verify_usage_lists_sorted_registry_names(self, capsys):
        from repro.harness.__main__ import main
        from repro.protocols.registry import names

        with pytest.raises(SystemExit):
            main(["harness", "verify", "--help"])
        flat = " ".join(capsys.readouterr().out.split())
        assert "registry name: " + ", ".join(names()) in flat


class TestClosedStdout:
    def test_reader_gone_before_the_first_write_is_not_a_traceback(self):
        # ``harness verify mmr14 | head -1`` with the reader already
        # gone: the child's first stdout write hits a closed pipe.
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.harness", "verify", "cc85a"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr, proc.stderr.decode()
        assert b"BrokenPipeError" not in proc.stderr
        assert proc.returncode == 1


def _harness(*args):
    """Run ``python -m repro.harness <args>`` in a fresh interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.harness", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


class TestVerifyExitCodes:
    """``harness verify`` exit codes: 0 for any verdict, 1 for an error,
    2 for a usage error."""

    @pytest.mark.parametrize("args,verdict", [
        (("cc85a",), "holds"),
        (("cc85a", "--target", "agreement", "--coin", "disagreeing:1/8"),
         "violated"),
        (("mmr14", "--max-states", "50"), "unknown"),
    ])
    def test_every_verdict_exits_zero(self, args, verdict):
        import json as _json

        proc = _harness("verify", *args, "--json")
        assert proc.returncode == 0, proc.stderr
        assert _json.loads(proc.stdout)["verdict"] == verdict

    @pytest.mark.parametrize("args", [
        ("nosuch",),
        ("cc85a", "--valuation", "n=2,t=1,f=1"),
    ])
    def test_errors_exit_one(self, args):
        assert _harness("verify", *args).returncode == 1

    def test_unknown_flag_is_a_usage_error(self):
        proc = _harness("verify", "cc85a", "--no-such-flag")
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
