"""CLI modes: --select across rule families, --hygiene, --protocol,
allowlist budget and stale-entry enforcement."""

import json

import pytest

from repro.analysis import protocol
from repro.analysis.allowlist import ALLOWLIST_BUDGET, parse_allowlist
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.analysis.protocol import Case
from repro.util.errors import ConfigError
from tests.test_protocol_verifier import mutate

pytestmark = pytest.mark.analysis


#: fires REPRO501 (dead store of a send-family completion event)
FLOW_BAD = (
    "def go(api, buf):\n"
    "    ev = api.send_buffer(buf)\n"
    "    return None\n"
)

#: fires REPRO101 (wall-clock call)
WALLCLOCK_BAD = "import time\nx = time.time()\n"


def write_pkg(tmp_path, source, rel="repro/machine/user.py"):
    f = tmp_path / rel
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(source)
    return tmp_path


# ---------------------------------------------------------------------------
# every selected rule runs on every scan
# ---------------------------------------------------------------------------


class TestFlowGating:
    def test_explicit_select_needs_no_flow_flag(self, tmp_path, capsys):
        root = write_pkg(tmp_path, FLOW_BAD)
        code = main([str(root), "--select", "REPRO501", "--no-allowlist"])
        assert code == EXIT_FINDINGS
        assert "REPRO501" in capsys.readouterr().out

    def test_select_combines_flow_and_per_file_rules(self, tmp_path, capsys):
        root = write_pkg(tmp_path, FLOW_BAD + WALLCLOCK_BAD)
        code = main(
            [str(root), "--select", "REPRO501,REPRO101", "--no-allowlist"]
        )
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REPRO501" in out and "REPRO101" in out


# ---------------------------------------------------------------------------
# --hygiene
# ---------------------------------------------------------------------------


class TestHygiene:
    def test_hygiene_skips_semantics_rules(self, tmp_path, capsys):
        root = write_pkg(tmp_path, WALLCLOCK_BAD)
        assert main([str(root), "--hygiene", "--no-allowlist"]) == EXIT_CLEAN
        capsys.readouterr()

    def test_hygiene_still_reports_hygiene_rules(self, tmp_path, capsys):
        root = write_pkg(
            tmp_path, "from repro.machine.scu import SendUnit\n",
            rel="repro/parallel/bad.py",
        )
        code = main([str(root), "--hygiene", "--no-allowlist"])
        out = capsys.readouterr().out
        if code == EXIT_FINDINGS:
            assert "REPRO40" in out
        # (clean is acceptable if the layering rule scopes differently;
        # the mode contract is "only 401/402 can fire")
        assert "REPRO101" not in out

    def test_hygiene_and_select_are_exclusive(self, tmp_path, capsys):
        root = write_pkg(tmp_path, WALLCLOCK_BAD)
        code = main([str(root), "--hygiene", "--select", "REPRO101"])
        assert code == EXIT_USAGE
        capsys.readouterr()


# ---------------------------------------------------------------------------
# --protocol
# ---------------------------------------------------------------------------


class TestProtocolFlag:
    """The CLI over a few cases (the whole enumeration is
    ``tests/test_protocol_verifier.py``'s to run)."""

    #: passes on production; the idle_dup_silence mutant fails it
    CASE = Case(n=2, batch=1, window=3, post="stall", faults=(0, 3))

    @pytest.fixture(autouse=True)
    def few_cases(self, monkeypatch):
        monkeypatch.setattr(protocol, "cases", lambda: iter([self.CASE]))

    def test_protocol_verifier_passes_and_exits_clean(self, capsys):
        assert main(["--protocol"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "protocol verification: ok" in out

    def test_protocol_combines_with_scan(self, tmp_path, capsys):
        root = write_pkg(tmp_path, WALLCLOCK_BAD)
        code = main(["--protocol", str(root), "--no-allowlist"])
        assert code == EXIT_FINDINGS  # the scan's finding, not the verifier
        out = capsys.readouterr().out
        assert "protocol verification: ok" in out and "REPRO101" in out

    def test_failing_case_is_named_for_replay(self, monkeypatch, capsys):
        mutate(monkeypatch, "idle_dup_silence")
        assert main(["--protocol"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert f"FAILED {self.CASE!r}: ProtocolError" in out
        assert "protocol enumeration: 1 cases, 1 failing" in out
        assert "protocol verification: FAILED" in out


# ---------------------------------------------------------------------------
# allowlist budget + staleness
# ---------------------------------------------------------------------------


def entry_lines(count):
    return "".join(
        f"REPRO101  repro/machine/f{i}.py  :: reason {i}\n"
        for i in range(count)
    )


class TestAllowlistBudget:
    def test_budget_exactly_ten_parses(self):
        entries = parse_allowlist(entry_lines(ALLOWLIST_BUDGET))
        assert len(entries) == ALLOWLIST_BUDGET

    def test_budget_eleven_refused(self):
        with pytest.raises(ConfigError, match="budget"):
            parse_allowlist(entry_lines(ALLOWLIST_BUDGET + 1))

    def test_cli_reports_over_budget_as_usage_error(self, tmp_path, capsys):
        root = write_pkg(tmp_path, "x = 1\n")
        allow = tmp_path / "allow"
        allow.write_text(entry_lines(ALLOWLIST_BUDGET + 1))
        code = main([str(root), "--allowlist", str(allow)])
        assert code == EXIT_USAGE
        assert "budget" in capsys.readouterr().err


class TestStaleEntries:
    def test_stale_entry_fails_loudly(self, tmp_path, capsys):
        # rule ran, file scanned, nothing suppressed -> hard failure
        root = write_pkg(tmp_path, "x = 1\n")
        allow = tmp_path / "allow"
        allow.write_text("REPRO101  repro/machine/user.py  :: fixed long ago\n")
        code = main([str(root), "--allowlist", str(allow)])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "stale allowlist entry" in out

    def test_unscanned_path_stays_a_warning(self, tmp_path, capsys):
        root = write_pkg(tmp_path, "x = 1\n")
        allow = tmp_path / "allow"
        allow.write_text("REPRO101  repro/other/elsewhere.py  :: other module\n")
        code = main([str(root), "--allowlist", str(allow)])
        assert code == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "warning: unused allowlist entry" in out
        assert "stale" not in out

    def test_unrun_rule_stays_a_warning(self, tmp_path, capsys):
        # --select skipped the entry's rule: staleness is unproven
        root = write_pkg(tmp_path, "x = 1\n")
        allow = tmp_path / "allow"
        allow.write_text("REPRO101  repro/machine/user.py  :: checked later\n")
        code = main(
            [str(root), "--select", "REPRO402", "--allowlist", str(allow)]
        )
        assert code == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "warning: unused allowlist entry" in out
        assert "stale" not in out

    def test_used_entry_is_neither_warned_nor_stale(self, tmp_path, capsys):
        root = write_pkg(tmp_path, WALLCLOCK_BAD)
        allow = tmp_path / "allow"
        allow.write_text("REPRO101  repro/machine/user.py  :: fixture\n")
        assert main([str(root), "--allowlist", str(allow)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "warning" not in out and "stale" not in out

    def test_stale_reported_in_json(self, tmp_path, capsys):
        root = write_pkg(tmp_path, "x = 1\n")
        allow = tmp_path / "allow"
        allow.write_text("REPRO101  repro/machine/user.py  :: fixed\n")
        code = main(
            [str(root), "--format", "json", "--allowlist", str(allow)]
        )
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["stale_allowlist_entries"]) == 1
