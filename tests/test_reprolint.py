"""reprolint regression suite (PR 4).

Every rule in the catalogue gets a minimal fixture that *fires* it and
a matching fixture that *passes* — the rule's contract, pinned — and a
one-line mutation of the real tree that it catches (the coverage table
of DESIGN.md section 14).  Plus the framework itself: allowlist
round-trip and strict parsing, engine determinism and parse-error
reporting, the CLI's exit codes and JSON shape, and the gate this whole
subsystem exists for — the repository's own ``src/`` tree lints clean.
"""

import ast
import json
import shutil
from pathlib import Path

import pytest

import repro.analysis.engine as engine_module
from repro.analysis import (
    Allowlist,
    LintEngine,
    all_rules,
    get_rule,
)
from repro.analysis.allowlist import (
    AllowEntry,
    find_default_allowlist,
    format_allowlist,
    parse_allowlist,
)
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.telemetry.schema import TRACE_SCHEMA
from repro.util.errors import ConfigError

pytestmark = pytest.mark.analysis

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint(tmp_path, rel, source, rule_ids=None, allowlist=None):
    """Lint one fixture file at tree-relative path ``rel``."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    rules = (
        [get_rule(r) for r in rule_ids] if rule_ids is not None else all_rules()
    )
    engine = LintEngine(rules=rules, allowlist=allowlist or Allowlist.empty())
    return engine.run([tmp_path])


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


# ---------------------------------------------------------------------------
# rule catalogue: one firing + one passing fixture per rule
# ---------------------------------------------------------------------------


class TestDeterminismRules:
    def test_wallclock_fires(self, tmp_path):
        src = "import time\n\ndef f():\n    return time.time()\n"
        result = lint(tmp_path, "repro/sim/x.py", src, ["REPRO101"])
        assert rules_fired(result) == ["REPRO101"]
        assert "time.time" in result.findings[0].message

    def test_environ_read_fires(self, tmp_path):
        src = "import os\n\ndef f():\n    return os.environ['HOME']\n"
        result = lint(tmp_path, "repro/sim/x.py", src, ["REPRO101"])
        assert rules_fired(result) == ["REPRO101"]

    def test_sim_now_passes(self, tmp_path):
        src = "def f(sim):\n    return sim.now\n"
        result = lint(tmp_path, "repro/sim/x.py", src, ["REPRO101"])
        assert result.clean

    def test_global_rng_fires(self, tmp_path):
        src = (
            "import random\n"
            "import numpy as np\n\n"
            "def f():\n"
            "    return random.random() + np.random.default_rng().random()\n"
        )
        result = lint(tmp_path, "repro/lattice/x.py", src, ["REPRO102"])
        # the import AND the np.random call are both flagged
        assert len(result.findings) >= 2
        assert rules_fired(result) == ["REPRO102"]

    def test_rng_home_module_exempt(self, tmp_path):
        src = "import numpy as np\n\ndef f(s):\n    return np.random.default_rng(s)\n"
        result = lint(tmp_path, "repro/util/rng.py", src, ["REPRO102"])
        assert result.clean

    def test_rng_stream_passes(self, tmp_path):
        src = (
            "from repro.util.rng import rng_stream\n\n"
            "def f(seed):\n    return rng_stream(seed, 'halo').random()\n"
        )
        result = lint(tmp_path, "repro/lattice/x.py", src, ["REPRO102"])
        assert result.clean

    def test_set_iteration_fires(self, tmp_path):
        src = (
            "def f(xs):\n"
            "    for x in {1, 2, 3}:\n"
            "        yield x\n"
            "    return list(set(xs))\n"
        )
        result = lint(tmp_path, "repro/comms/x.py", src, ["REPRO103"])
        assert len(result.findings) == 2  # the for-loop and the list(set())
        assert rules_fired(result) == ["REPRO103"]

    def test_sorted_set_passes(self, tmp_path):
        src = (
            "def f(xs):\n"
            "    for x in sorted({1, 2, 3}):\n"
            "        yield x\n"
            "    return list(sorted(set(xs)))\n"
        )
        result = lint(tmp_path, "repro/comms/x.py", src, ["REPRO103"])
        assert result.clean

    def test_cross_shard_buffer_iteration_fires(self, tmp_path):
        # E16: a bare walk over a cross-shard message buffer delivers in
        # append order, which differs between the serial and forked
        # executors — only the (time, src_shard, src_seq) sort is legal
        src = (
            "class R:\n"
            "    def flush(self):\n"
            "        for post in self._outbox:\n"
            "            post.deliver()\n"
            "        return [n.kind for n in self.mailboxes]\n"
        )
        result = lint(tmp_path, "repro/sim/x.py", src, ["REPRO104"])
        assert len(result.findings) == 2  # the for-loop and the listcomp
        assert rules_fired(result) == ["REPRO104"]

    def test_cross_shard_buffer_sorted_passes(self, tmp_path):
        src = (
            "class R:\n"
            "    def flush(self):\n"
            "        for post in sorted(self._outbox, key=lambda p: p.order):\n"
            "            post.deliver()\n"
            "        for item in self.queue:\n"  # not a cross-shard buffer
            "            item.go()\n"
        )
        result = lint(tmp_path, "repro/sim/x.py", src, ["REPRO104"])
        assert result.clean

    def test_hot_path_allocation_fires(self, tmp_path):
        src = (
            "import numpy as np\n"
            "from repro.util.hotpath import hot_path\n\n"
            "@hot_path\n"
            "def merge(ctx, sites):\n"
            "    acc = np.zeros((len(sites), 4, 3))\n"
            "    tmp = ctx.work.copy()\n"
            "    return np.concatenate([acc, tmp])\n"
        )
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO105"])
        assert rules_fired(result) == ["REPRO105"]
        assert len(result.findings) == 3  # np.zeros, .copy(), np.concatenate
        assert "hot_path" in result.findings[0].message

    def test_hot_path_np_take_fires(self, tmp_path):
        src = (
            "import numpy as np\n"
            "from repro.util.hotpath import hot_path\n\n"
            "@hot_path\n"
            "def gather(ctx, sites):\n"
            "    np.take(ctx.work, sites, axis=0, out=ctx.scratch, mode='clip')\n"
            "    ctx.work.take(sites, axis=0, out=ctx.scratch, mode='clip')\n\n"
            "def cold_gather(ctx, sites):\n"
            "    return np.take(ctx.work, sites, axis=0)\n"  # untagged: allowed
        )
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO105"])
        (finding,) = result.findings
        assert finding.rule == "REPRO105" and finding.line == 6
        assert "a.take(" in finding.message and "'gather'" in finding.message

    def test_hot_path_out_forms_pass(self, tmp_path):
        src = (
            "import numpy as np\n"
            "from repro.util.hotpath import hot_path\n\n"
            "@hot_path\n"
            "def merge(ctx, sites):\n"
            "    ctx.work.take(sites, axis=0, out=ctx.scratch)\n"
            "    np.copyto(ctx.acc, ctx.scratch)\n"
            "    np.einsum('xab,xb->xa', ctx.links, ctx.scratch, out=ctx.acc)\n"
            "    return ctx.acc\n\n"
            "def cold_setup(n):\n"
            "    return np.zeros((n, 4, 3))\n"  # untagged: allowed
        )
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO105"])
        assert result.clean


class TestProtocolRules:
    def test_dropped_completion_fires(self, tmp_path):
        src = (
            "def program(api):\n"
            "    api.send_buffer(0, 1, 'face')\n"
            "    api.start_stored()\n"
        )
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO501"])
        assert len(result.findings) == 2
        assert "completion event" in result.findings[0].message

    def test_consumed_completion_passes(self, tmp_path):
        src = (
            "def program(api):\n"
            "    yield api.send_buffer(0, 1, 'face')\n"
            "    done = api.start_stored()\n"
            "    yield api.wait([done])\n"
        )
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO501"])
        assert result.clean

    def test_control_port_send_not_flagged(self, tmp_path):
        # link-level fire-and-forget control path: not a completion-event API
        src = "def f(port):\n    port.send('ACK', 3)\n"
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO501"])
        assert result.clean

    def test_drop_in_nested_def_fires_once(self, tmp_path):
        # a callback nested in a method, and code at module level: each
        # body is checked, each statement once
        src = (
            "class Unit:\n"
            "    def arm(self, api):\n"
            "        def on_timeout(_event):\n"
            "            api.send_supervisor(0, 1)\n"
            "        return on_timeout\n"
            "\n"
            "api.barrier()\n"
        )
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO501"])
        assert [(f.rule, f.line) for f in result.findings] == [
            ("REPRO501", 4),
            ("REPRO501", 7),
        ]

    def test_counter_write_outside_owner_fires(self, tmp_path):
        src = "def f(node):\n    node.flops_charged += 100\n"
        result = lint(tmp_path, "repro/solvers/x.py", src, ["REPRO202"])
        assert rules_fired(result) == ["REPRO202"]
        assert "flops_charged" in result.findings[0].message

    def test_counter_write_inside_owner_passes(self, tmp_path):
        src = "def f(self):\n    self.flops_charged += 100\n"
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO202"])
        assert result.clean


class TestAccountingRules:
    def test_magic_flop_constant_fires(self, tmp_path):
        src = "def f(api, v):\n    yield api.compute(1320 * v, kernel='dslash')\n"
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO301"])
        assert rules_fired(result) == ["REPRO301"]
        assert "WILSON_DSLASH_FLOPS" in result.findings[0].message

    def test_magic_flops_assignment_fires(self, tmp_path):
        src = "def f(self):\n    self.merge_flops_per_site = 48 + 3\n"
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO301"])
        assert rules_fired(result) == ["REPRO301"]

    def test_named_constant_passes(self, tmp_path):
        src = (
            "from repro.fermions.flops import WILSON_DSLASH_FLOPS\n\n"
            "def f(api, v):\n"
            "    yield api.compute(WILSON_DSLASH_FLOPS * v, kernel='dslash')\n"
        )
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO301"])
        assert result.clean

    def test_cost_sheet_itself_exempt(self, tmp_path):
        src = "WILSON_DSLASH_FLOPS = 1320\nDIAG_AXPY_FLOPS = 48\n"
        result = lint(tmp_path, "repro/fermions/flops.py", src, ["REPRO301"])
        assert result.clean

    def test_untagged_compute_fires_in_parallel(self, tmp_path):
        src = "def f(api, n, r):\n    yield api.compute(n)\n    yield api.compute(n, rate=r)\n"
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO503"])
        assert rules_fired(result) == ["REPRO503"]
        assert len(result.findings) == 2  # a rate does not name the kernel

    def test_untagged_compute_allowed_outside_parallel(self, tmp_path):
        src = "def f(api, n):\n    yield api.compute(n)\n"
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO503"])
        assert result.clean

    def test_tagged_compute_passes(self, tmp_path):
        src = "def f(api, n, r):\n    yield api.compute(n, kernel='dslash', rate=r)\n"
        result = lint(tmp_path, "repro/parallel/x.py", src, ["REPRO503"])
        assert result.clean

    def test_unregistered_trace_tag_fires(self, tmp_path):
        src = "def f(trace):\n    trace.emit('totally.bogus', node=0)\n"
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO303"])
        assert rules_fired(result) == ["REPRO303"]
        assert "unregistered" in result.findings[0].message

    def test_trace_field_drift_fires(self, tmp_path):
        tag, fields = sorted(TRACE_SCHEMA.items())[0]
        kwargs = ", ".join(f"{f}=0" for f in sorted(fields))
        drifted = kwargs + ", extra_field=1"
        src = f"def f(trace):\n    trace.emit({tag!r}, {drifted})\n"
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO303"])
        assert rules_fired(result) == ["REPRO303"]
        assert "field drift" in result.findings[0].message

    def test_registered_tag_exact_fields_passes(self, tmp_path):
        tag, fields = sorted(TRACE_SCHEMA.items())[0]
        kwargs = ", ".join(f"{f}=0" for f in sorted(fields))
        src = f"def f(trace):\n    trace.emit({tag!r}, {kwargs})\n"
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO303"])
        assert result.clean

    def test_dead_registry_entries_flagged_on_full_scan(self, tmp_path):
        # a scan that covers the schema module itself audits for dead
        # entries; this fixture tree emits nothing, so every entry is dead
        lintable = "TRACE_SCHEMA = {}\n"
        (tmp_path / "repro" / "telemetry").mkdir(parents=True)
        (tmp_path / "repro" / "telemetry" / "schema.py").write_text(lintable)
        result = lint(
            tmp_path, "repro/machine/x.py", "def f():\n    pass\n", ["REPRO303"]
        )
        dead = [f for f in result.findings if "dead registry entry" in f.message]
        assert len(dead) == len(TRACE_SCHEMA)


class TestHygieneRules:
    def test_mutable_default_fires(self, tmp_path):
        src = "def f(xs=[], *, m={}):\n    return xs, m\n"
        result = lint(tmp_path, "repro/util/x.py", src, ["REPRO401"])
        assert len(result.findings) == 2
        assert rules_fired(result) == ["REPRO401"]

    def test_none_default_passes(self, tmp_path):
        src = "def f(xs=None):\n    return list(xs or ())\n"
        result = lint(tmp_path, "repro/util/x.py", src, ["REPRO401"])
        assert result.clean

    def test_bare_except_fires(self, tmp_path):
        src = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 0\n"
        )
        result = lint(tmp_path, "repro/util/x.py", src, ["REPRO402"])
        assert rules_fired(result) == ["REPRO402"]

    def test_silent_exception_pass_fires(self, tmp_path):
        src = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        pass\n"
        )
        result = lint(tmp_path, "repro/util/x.py", src, ["REPRO402"])
        assert rules_fired(result) == ["REPRO402"]

    def test_named_except_passes(self, tmp_path):
        src = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError:\n"
            "        raise\n"
        )
        result = lint(tmp_path, "repro/util/x.py", src, ["REPRO402"])
        assert result.clean

    def test_upward_layer_import_fires(self, tmp_path):
        src = "from repro.fermions.wilson import WilsonDirac\n"
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO403"])
        assert rules_fired(result) == ["REPRO403"]
        assert "cross-layer" in result.findings[0].message

    def test_function_local_upcall_passes(self, tmp_path):
        src = (
            "def report(self):\n"
            "    from repro.telemetry.report import machine_report\n"
            "    return machine_report(self)\n"
        )
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO403"])
        assert result.clean

    def test_downward_import_passes(self, tmp_path):
        src = "from repro.sim.core import Simulator\nfrom repro.util import units\n"
        result = lint(tmp_path, "repro/machine/x.py", src, ["REPRO403"])
        assert result.clean

    def test_service_sits_above_every_other_layer(self, tmp_path):
        # the job service orchestrates host, machine, solvers and
        # telemetry: all of those imports are downward and legal
        src = (
            "from repro.host.qdaemon import Qdaemon\n"
            "from repro.host.remap import find_healthy_partition\n"
            "from repro.machine.machine import QCDOCMachine\n"
            "from repro.solvers.checkpoint import CGCheckpointStore\n"
            "from repro.telemetry.counters import sample\n"
        )
        result = lint(tmp_path, "repro/service/x.py", src, ["REPRO403"])
        assert result.clean

    def test_analysis_importing_service_fires(self, tmp_path):
        # nothing may reach *up* into the service layer — not even the
        # analysis tools one rank below it
        src = "from repro.service.scheduler import SchedulerCore\n"
        result = lint(tmp_path, "repro/analysis/x.py", src, ["REPRO403"])
        assert rules_fired(result) == ["REPRO403"]

    def test_host_importing_service_fires(self, tmp_path):
        src = "from repro.service import QcdocService\n"
        result = lint(tmp_path, "repro/host/x.py", src, ["REPRO403"])
        assert rules_fired(result) == ["REPRO403"]


# ---------------------------------------------------------------------------
# framework: allowlist, engine, CLI
# ---------------------------------------------------------------------------


class TestAllowlist:
    def test_round_trip(self):
        entries = [
            AllowEntry("REPRO301", "repro/a.py", "legacy constant, issue #7"),
            AllowEntry("REPRO403", "repro/b.py", "facade upcall"),
        ]
        text = format_allowlist(entries)
        assert parse_allowlist(text) == entries

    def test_malformed_lines_raise(self):
        with pytest.raises(ConfigError):
            parse_allowlist("REPRO301 repro/a.py\n")  # no justification
        with pytest.raises(ConfigError):
            parse_allowlist("REPRO301 repro/a.py ::   \n")  # empty reason
        with pytest.raises(ConfigError):
            parse_allowlist("REPRO301 :: missing the path\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nREPRO101  repro/x.py  :: reason\n"
        assert len(parse_allowlist(text)) == 1

    def test_suppression_is_per_rule_and_file(self, tmp_path):
        src = "import time\n\ndef f():\n    return time.time()\n"
        allow = Allowlist([AllowEntry("REPRO101", "repro/sim/x.py", "fixture")])
        result = lint(tmp_path, "repro/sim/x.py", src, ["REPRO101"], allow)
        assert result.clean
        assert len(result.suppressed) == 1
        # a different rule id in the same file is NOT suppressed
        wrong = Allowlist([AllowEntry("REPRO999", "repro/sim/x.py", "fixture")])
        result = lint(tmp_path, "repro/sim/x.py", src, ["REPRO101"], wrong)
        assert not result.clean

    def test_unused_entries_reported(self, tmp_path):
        allow = Allowlist([AllowEntry("REPRO101", "repro/never.py", "stale")])
        result = lint(tmp_path, "repro/sim/x.py", "x = 1\n", ["REPRO101"], allow)
        assert result.unused_allow_entries(allow) == [
            "REPRO101  repro/never.py  :: stale"
        ]

    def test_find_default_allowlist_walks_up(self, tmp_path):
        (tmp_path / ".reprolint-allow").write_text("")
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        assert find_default_allowlist(nested) == tmp_path / ".reprolint-allow"


class TestEngine:
    def test_rule_catalogue_is_complete(self):
        ids = [cls.rule_id for cls in all_rules()]
        assert ids == [
            "REPRO101",
            "REPRO102",
            "REPRO103",
            "REPRO104",
            "REPRO105",
            "REPRO202",
            "REPRO301",
            "REPRO303",
            "REPRO401",
            "REPRO402",
            "REPRO403",
            "REPRO501",
            "REPRO503",
            "REPRO504",
        ]
        for cls in all_rules():
            assert cls.name and cls.summary

    def test_project_is_built_once_per_run(self, tmp_path, monkeypatch):
        """Every rule that reads the symbol table shares one; a run whose
        rules never ask for it never builds it."""
        real, builds = engine_module.build_symbols, []

        def counting(modules):
            builds.append(len(modules))
            return real(modules)

        monkeypatch.setattr(engine_module, "build_symbols", counting)
        (tmp_path / "a.py").write_text("def f(api):\n    return api.send(0)\n")
        (tmp_path / "b.py").write_text("def g(api):\n    f(api)\n")
        flow = ["REPRO501", "REPRO503", "REPRO504"]
        LintEngine(rules=[get_rule(r) for r in flow]).run([tmp_path])
        assert builds == [2]
        LintEngine(rules=[get_rule("REPRO401"), get_rule("REPRO402")]).run([tmp_path])
        assert builds == [2]

    def test_findings_sorted_deterministically(self, tmp_path):
        for name in ("b.py", "a.py"):
            (tmp_path / name).write_text(
                "import time\nx = time.time()\ny = time.time()\n"
            )
        engine = LintEngine(rules=[get_rule("REPRO101")])
        result = engine.run([tmp_path])
        keys = [(f.path, f.line) for f in result.findings]
        assert keys == sorted(keys)

    def test_syntax_error_reported_not_crashing(self, tmp_path):
        (tmp_path / "bad.py").write_text("def f(:\n")
        result = LintEngine(rules=[]).run([tmp_path])
        assert not result.clean
        assert result.parse_errors[0].rule == "REPRO000"


class TestCLI:
    def test_exit_clean_on_clean_file(self, tmp_path, capsys):
        f = tmp_path / "ok.py"
        f.write_text("x = 1\n")
        assert main([str(f), "--no-allowlist"]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_exit_findings_on_violation(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import time\nx = time.time()\n")
        assert main([str(f), "--no-allowlist"]) == EXIT_FINDINGS
        assert "REPRO101" in capsys.readouterr().out

    def test_exit_usage_on_missing_path(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["/no/such/path-xyz"]) == EXIT_USAGE
        assert main(["--select", "NOPE999", "."]) == EXIT_USAGE
        capsys.readouterr()

    def test_select_restricts_rules(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import time\nx = time.time()\n")
        # selecting an unrelated rule: the wallclock call is not reported
        assert main([str(f), "--select", "REPRO402", "--no-allowlist"]) == EXIT_CLEAN
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "REPRO101" in out and "REPRO403" in out

    def test_json_format_schema(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import time\nx = time.time()\n")
        assert main([str(f), "--format", "json", "--no-allowlist"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "files_scanned",
            "findings",
            "suppressed",
            "parse_errors",
            "clean",
            "unused_allowlist_entries",
            "stale_allowlist_entries",
        }
        assert payload["clean"] is False
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "REPRO101"

    def test_allowlist_flag(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import time\nx = time.time()\n")
        allow = tmp_path / "allow"
        allow.write_text("REPRO101  bad.py  :: fixture\n")
        assert main([str(f), "--allowlist", str(allow)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "1 suppressed" in out


# ---------------------------------------------------------------------------
# the gate: the repository's own source tree lints clean
# ---------------------------------------------------------------------------


def test_source_tree_is_clean():
    allow_file = find_default_allowlist(SRC)
    allowlist = Allowlist.load(allow_file) if allow_file else Allowlist.empty()
    assert len(allowlist) <= 10, "allowlist grew beyond the agreed budget"
    result = LintEngine(allowlist=allowlist).run([SRC.parent])
    assert result.parse_errors == []
    assert [f.format() for f in result.findings] == []
    # and the allowlist carries no stale entries
    assert result.unused_allow_entries(allowlist) == []


# ---------------------------------------------------------------------------
# coverage: every rule catches a one-line mutation of today's tree
# ---------------------------------------------------------------------------

#: rule id -> (file under src/repro, text, its mutation); the table of
#: DESIGN.md section 14
MUTATIONS = {
    "REPRO101": (
        "hmc/hmc.py",
        'rng_stream(self.seed, f"momenta/',
        'rng_stream(time.time_ns(), f"momenta/',
    ),
    "REPRO102": (
        "hmc/hmc.py",
        'rng_stream(self.seed, f"metropolis/{self.trajectory_index}")',
        "np.random.default_rng(self.seed)",
    ),
    "REPRO103": (
        "lattice/stencil.py",
        "tuple(sorted(set(int(a) for a in comm_axes)))",
        "tuple(set(int(a) for a in comm_axes))",
    ),
    "REPRO104": (
        "sim/sync.py",
        "sorted(self._outbox, key=lambda p: p.order)",
        "list(self._outbox)",
    ),
    "REPRO105": ("parallel/halo.py", "np.copyto(self.work, src)", "self.work = src.copy()"),
    "REPRO202": (
        "parallel/pcg.py",
        "flops_before = sum(n.flops_charged for n in machine.nodes.values())",
        "for n in machine.nodes.values(): n.flops_charged = 0",
    ),
    "REPRO301": ("parallel/halo.py", "staged * MATVEC_SU3", "staged * 66"),
    "REPRO303": ("machine/scu.py", '"scu.link_down",', '"scu.link_down", cause=reason,'),
    "REPRO401": ("parallel/halo.py", "word_batch=None,", "word_batch=[],"),
    "REPRO402": ("lattice/stencil.py", "except KeyError:", "except:"),
    "REPRO403": (
        "machine/memory.py",
        "from repro.util.errors import ConfigError",
        "from repro.perfmodel.dirac_perf import calibrate",
    ),
    "REPRO501": (
        "parallel/pcg.py",
        "summed = yield api.global_sum(padded)",
        "api.global_sum(padded)",
    ),
    "REPRO503": (
        "parallel/halo.py",
        'compute(flops, kernel="linalg", rate=rate)',
        "compute(flops, rate=rate)",
    ),
    "REPRO504": (
        "machine/node.py",
        '_RESET_KEPT = ("flops_charged", "compute_time", "kernel_flops")',
        '_RESET_KEPT = ("flops_charged", "compute_time")',
    ),
}


def _repo_allowlist():
    return Allowlist.load(find_default_allowlist(SRC))


@pytest.fixture(scope="module")
def unmutated(tmp_path_factory):
    """Every rule over an unmutated copy of the tree: the allowlisted
    findings and nothing else."""
    root = tmp_path_factory.mktemp("unmutated")
    shutil.copytree(SRC, root / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    allowlist = _repo_allowlist()
    result = LintEngine(allowlist=allowlist).run([root])
    assert result.findings == [] and result.parse_errors == []
    assert result.unused_allow_entries(allowlist) == []
    return result


@pytest.mark.parametrize("rule_id", [cls.rule_id for cls in all_rules()])
def test_rule_catches_a_mutation_of_the_tree(rule_id, tmp_path, unmutated):
    if rule_id not in MUTATIONS:
        pytest.fail(f"{rule_id} has no mutation of the tree it catches")
    rel, text, mutated = MUTATIONS[rule_id]
    shutil.copytree(SRC, tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "repro" / rel
    source = path.read_text()
    assert text in source, f"{rel} no longer reads {text!r}"
    path.write_text(source.replace(text, mutated, 1))
    engine = LintEngine(rules=[get_rule(rule_id)], allowlist=_repo_allowlist())
    fired = [f.path for f in engine.run([tmp_path]).findings if f.rule == rule_id]
    assert f"repro/{rel}" in fired
    assert [f for f in unmutated.findings if f.rule == rule_id] == []


# ---------------------------------------------------------------------------
# one timeline: a time of the machine is computed on the ASIC sheet
# ---------------------------------------------------------------------------

#: fields of ``ASICConfig`` that are times, rates or ladder constants
_TIMING_FIELDS = {
    "clock_hz",
    "watchdog_timeout",
    "watchdog_backoff_factor",
    "word_serialisation_time",
}


def _timing_operand(node, dividing):
    """The timing field ``node`` reads, if it is one (a ``frame_*_bits``
    width counts only where a division turns it into a time)."""
    if not isinstance(node, ast.Attribute):
        return None
    name = node.attr
    if name in _TIMING_FIELDS or name.endswith("_latency"):
        return name
    if dividing and name.startswith("frame_") and name.endswith("_bits"):
        return name
    return None


def _wire_operand(node, _dividing):
    """The ASIC wire field ``node`` reads, if it is one: a latency, a frame
    width, the word time or the link rate — what the analytic model takes
    from :meth:`ASICConfig.transfer_times` instead of pricing itself."""
    if not isinstance(node, ast.Attribute):
        return None
    name = node.attr
    if (
        name.endswith("_latency")
        or name in ("word_serialisation_time", "link_bandwidth")
        or (name.startswith("frame_") and name.endswith("_bits"))
    ):
        return name
    return None


#: ``(file, function)`` pricing networks that are not QCDOC's: the
#: commodity-cluster and QCDSP baselines
_BASELINE_NETWORKS = {
    ("perfmodel/latency.py", "cluster_message_time"),
    ("perfmodel/scaling.py", "baseline_point"),
}


def _timing_arithmetic(tree, operand=_timing_operand):
    """``(function, line, field)`` for every arithmetic expression in
    ``tree`` with a timing field (as ``operand`` tells one) as an operand."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        operands = ()
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.value,)
        for side in operands:
            field = operand(side, isinstance(node.op, ast.Div))
            if field is not None:
                found.append((function, node.lineno, field))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


#: where flops become cycles: ``(file, function)`` of the one rule
COMPUTE_TIME_RULE = ("machine/memory.py", "compute_cycles")


def _fpu_rate_divisions(tree):
    """``(function, line, field)`` for every division whose divisor reads
    ``peak_flops`` or ``flops_per_cycle``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            for sub in ast.walk(node.right):
                if isinstance(sub, ast.Attribute) and sub.attr in (
                    "peak_flops",
                    "flops_per_cycle",
                ):
                    found.append((function, node.lineno, sub.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_timing_arithmetic_lives_on_the_sheet():
    """``machine/``, ``sim/`` and ``perfmodel/`` read times off
    ``ASICConfig`` (or get them from the wire, ``hssl.py``, whose occupancy
    and flight arithmetic is the one copy of it); they do not rebuild one
    from its parts.  That is how compiled replay and the interpreter came
    to disagree by a rounding, and the model and the twin by a formula:
    the same time spelled two ways."""
    # the scan sees what it is meant to see
    sample = ast.parse(
        "def f(asic, n):\n"
        "    a = asic.dma_fetch_latency + asic.scu_inject_latency\n"
        "    b = n * asic.frame_payload_bits\n"
        "    c = asic.frame_header_bits / asic.clock_hz\n"
        "    return asic.wire_latency\n"
    )
    assert sorted(field for _f, _l, field in _timing_arithmetic(sample)) == [
        "clock_hz",
        "dma_fetch_latency",
        "frame_header_bits",
        "scu_inject_latency",
    ]

    offenders = []
    for package in ("machine", "sim"):
        for path in sorted((SRC / package).glob("*.py")):
            rel = f"{package}/{path.name}"
            if rel in ("machine/asic.py", "machine/hssl.py"):
                continue
            for function, line, field in _timing_arithmetic(ast.parse(path.read_text())):
                # the named exceptions: the partition-interrupt flood
                # period, a bound with a safety margin, not a time the
                # machine takes; and the compute-time rule, which turns
                # its own cycles into seconds
                if (rel, function) not in (
                    ("machine/interrupts.py", "safe_period"),
                    ("machine/memory.py", "seconds_per_flop"),
                ):
                    offenders.append(f"{rel}:{line} {function}: arithmetic on {field}")
    assert offenders == []

    # one compute-time rule: flops become cycles in one place — nothing in
    # machine/, comms/ or parallel/ divides by the FPU's rate on its own
    sample = ast.parse(
        "def f(asic, flops):\n"
        "    a = flops / asic.peak_flops\n"
        "    b = flops / (asic.peak_flops * 0.4)\n"
        "    c = flops / asic.flops_per_cycle\n"
        "    return asic.n_nodes * asic.peak_flops\n"
    )
    assert [field for _f, _l, field in _fpu_rate_divisions(sample)] == [
        "peak_flops",
        "peak_flops",
        "flops_per_cycle",
    ]
    offenders = [
        f"{package}/{path.name}:{line} {function}: divides by {field}"
        for package in ("machine", "comms", "parallel")
        for path in sorted((SRC / package).glob("*.py"))
        for function, line, field in _fpu_rate_divisions(ast.parse(path.read_text()))
        if (f"{package}/{path.name}", function) != COMPUTE_TIME_RULE
    ]
    assert offenders == []
    # ... and the scan fires on a kernel that prices its own flops
    seeded = ast.parse(
        (SRC / "parallel" / "pdirac.py").read_text()
        + "\ndef own_clock(asic, flops):\n    return flops / asic.peak_flops\n"
    )
    assert [(f, field) for f, _l, field in _fpu_rate_divisions(seeded)] == [
        ("own_clock", "peak_flops")
    ]

    # the analytic model reads its wire times off the sheet as well: one
    # transfer time, not a second spelling of it in perfmodel/
    offenders = [
        f"perfmodel/{path.name}:{line} {function}: arithmetic on {field}"
        for path in sorted((SRC / "perfmodel").glob("*.py"))
        for function, line, field in _timing_arithmetic(
            ast.parse(path.read_text()), _wire_operand
        )
        if (f"perfmodel/{path.name}", function) not in _BASELINE_NETWORKS
    ]
    assert offenders == []
    # ... and the scan fires on a model that prices a message itself
    seeded = ast.parse(
        (SRC / "perfmodel" / "latency.py").read_text()
        + "\ndef hand_priced(asic, n):\n"
        "    return asic.neighbour_latency + (n - 1) * asic.word_serialisation_time\n"
    )
    assert [
        (f, field)
        for f, _l, field in _timing_arithmetic(seeded, _wire_operand)
        if ("perfmodel/latency.py", f) not in _BASELINE_NETWORKS
    ] == [
        ("hand_priced", "neighbour_latency"),
        ("hand_priced", "word_serialisation_time"),
    ]

    # the analytic model asks the sheet for a global sum, hop latency included
    readers = [
        f"perfmodel/{path.name}:{node.lineno}"
        for path in sorted((SRC / "perfmodel").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "passthrough_latency"
    ]
    assert readers == []
