"""Whole-program flow analysis suite: REPRO501, REPRO503 and REPRO504.

Four layers:

1. **Infrastructure** — call-graph resolution (``self.m()`` binds to
   the caller's class); return-escape taint through locals and
   containers.
2. **Rule fixtures** — every REPRO5xx rule gets minimal fire *and*
   pass fixtures pinning its contract, including the interprocedural
   cases a per-file rule cannot see.
3. **The gate** — the repository's own ``src/`` tree is clean under
   the full flow family (the bugs the rules found were *fixed*, not
   allowlisted).
4. **Snapshot regressions** — the concrete REPRO504 findings this PR
   fixed (``SerialLink.in_transit``, ``SendUnit._consec_resends``,
   ``SCU._draining``) round-trip through snapshot/restore at runtime.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import Allowlist, LintEngine, all_rules, get_rule
from repro.analysis.allowlist import find_default_allowlist
from repro.analysis.flow import build_call_graph, build_symbols
from repro.analysis.flow.dataflow import returns_source
from repro.analysis.engine import ModuleContext
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.machine.scu import SCU, RecvUnit, SendUnit
from repro.machine.hssl import SerialLink

pytestmark = pytest.mark.analysis

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

FLOW_RULES = ["REPRO501", "REPRO503", "REPRO504"]


def lint_files(tmp_path, files, rule_ids):
    """Lint a multi-file fixture tree (relpath -> source)."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    engine = LintEngine(
        rules=[get_rule(r) for r in rule_ids], allowlist=Allowlist.empty()
    )
    return engine.run([tmp_path])


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


def _fn(source, name=None):
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (
            name is None or node.name == name
        ):
            return node
    raise AssertionError("no function in fixture")


def _module(relpath, source):
    return ModuleContext(Path("/fixture") / relpath, relpath, source)


# ---------------------------------------------------------------------------
# infrastructure: call graph, taint
# ---------------------------------------------------------------------------


class TestCallGraphAndTaint:
    def test_self_call_binds_to_own_class(self):
        mod = _module(
            "repro/machine/x.py",
            "class A:\n"
            "    def top(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return 1\n"
            "class B:\n"
            "    def helper(self):\n"
            "        return 2\n",
        )
        symbols = build_symbols([mod])
        graph = build_call_graph(symbols)
        callees = graph.callees_of("repro/machine/x.py::A.top")
        assert callees == {"repro/machine/x.py::A.helper"}

    def test_returns_source_through_local_and_dict(self):
        direct = _fn("def f(api):\n    return api.send_buffer('b')\n")
        via_local = _fn(
            "def f(api):\n    ev = api.send_buffer('b')\n    return ev\n"
        )
        via_dict = _fn(
            "def f(api):\n"
            "    evs = {}\n"
            "    evs['x'] = api.send_buffer('b')\n"
            "    return evs\n"
        )
        laundered = _fn("def f(api):\n    return len(api.queue)\n")

        def source(call):
            return (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "send_buffer"
            )

        assert returns_source(direct, source)
        assert returns_source(via_local, source)
        assert returns_source(via_dict, source)
        assert not returns_source(laundered, source)


# ---------------------------------------------------------------------------
# REPRO501 send-completion-escape
# ---------------------------------------------------------------------------


class TestSendCompletionEscape:
    WRAPPER = (
        "def kick(api, buf):\n"
        "    ev = api.send_buffer(buf)\n"
        "    return ev\n"
    )

    def test_dropped_wrapper_result_fires(self, tmp_path):
        files = {
            "repro/comms/helper.py": self.WRAPPER,
            "repro/machine/user.py": (
                "from repro.comms.helper import kick\n\n"
                "def go(api, buf):\n"
                "    kick(api, buf)\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO501"])
        assert rules_fired(result) == ["REPRO501"]
        assert "kick" in result.findings[0].message

    def test_consumed_wrapper_result_passes(self, tmp_path):
        files = {
            "repro/comms/helper.py": self.WRAPPER,
            "repro/machine/user.py": (
                "def go(api, buf):\n"
                "    ev = kick(api, buf)\n"
                "    yield ev\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO501"])
        assert result.clean

    def test_dead_store_of_send_event_fires(self, tmp_path):
        files = {
            "repro/machine/user.py": (
                "def go(api, buf):\n"
                "    ev = api.send_buffer(buf)\n"
                "    return None\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO501"])
        assert rules_fired(result) == ["REPRO501"]
        assert "'ev'" in result.findings[0].message

    def test_container_escape_two_levels_fires(self, tmp_path):
        files = {
            "repro/comms/helper.py": (
                "def kicks(api):\n"
                "    evs = {}\n"
                "    evs['x'] = api.send_buffer('b')\n"
                "    return evs\n"
                "def rekick(api):\n"
                "    return kicks(api)\n"
            ),
            "repro/machine/user.py": (
                "def go(api):\n"
                "    rekick(api)\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO501"])
        assert rules_fired(result) == ["REPRO501"]

    def test_bare_drop_reported_once_by_one_rule(self, tmp_path):
        # a bare api.send_buffer() drop: one finding over the whole catalogue
        files = {
            "repro/machine/user.py": (
                "def go(api, buf):\n"
                "    api.send_buffer(buf)\n"
            ),
        }
        result = lint_files(tmp_path, files, [cls.rule_id for cls in all_rules()])
        assert [(f.rule, f.line) for f in result.findings] == [("REPRO501", 2)]

    def test_ambiguous_callee_does_not_fire(self, tmp_path):
        # two defs share the name; only one returns an event -> no fire
        files = {
            "repro/comms/helper.py": self.WRAPPER,
            "repro/sim/other.py": "def kick(api, buf):\n    return 0\n",
            "repro/machine/user.py": (
                "def go(api, buf):\n"
                "    kick(api, buf)\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO501"])
        assert result.clean


# ---------------------------------------------------------------------------
# REPRO503 flop-charge-coverage
# ---------------------------------------------------------------------------


class TestFlopChargeCoverage:
    HELPER = (
        "import numpy as np\n\n"
        "def matvec(u, v):\n"
        "    return np.einsum('ij,j->i', u, v)\n"
    )

    def test_uncharged_chain_fires(self, tmp_path):
        files = {
            "repro/parallel/ops.py": (
                self.HELPER + "\ndef entry(api, u, v):\n    return matvec(u, v)\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO503"])
        assert rules_fired(result) == ["REPRO503"]
        assert "einsum" in result.findings[0].message

    def test_caller_charges_passes(self, tmp_path):
        files = {
            "repro/parallel/ops.py": (
                self.HELPER
                + "\ndef entry(api, u, v):\n"
                "    out = matvec(u, v)\n"
                "    yield api.compute(66, kernel='dslash')\n"
                "    return out\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO503"])
        assert result.clean

    def test_self_charging_helper_passes(self, tmp_path):
        files = {
            "repro/parallel/ops.py": (
                "import numpy as np\n\n"
                "def entry(api, u, v):\n"
                "    out = np.einsum('ij,j->i', u, v)\n"
                "    yield api.compute(66, kernel='dslash')\n"
                "    return out\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO503"])
        assert result.clean

    def test_deep_uncharged_chain_fires_at_kernel(self, tmp_path):
        files = {
            "repro/parallel/ops.py": (
                self.HELPER
                + "\ndef mid(u, v):\n"
                "    return matvec(u, v)\n"
                "\ndef entry(api, u, v):\n"
                "    return mid(u, v)\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO503"])
        assert rules_fired(result) == ["REPRO503"]
        assert len(result.findings) == 1  # only the kernel site, not mid

    @pytest.mark.parametrize(
        "kernel, module",
        [
            ("cmatvec_site_fastest", "repro.lattice.gauge"),
            ("spin_project", "repro.fermions.gamma"),
            ("reconstruct_lower", "repro.fermions.gamma"),
            ("apply_spin_matrix_site_fastest", "repro.fermions.gamma"),
        ],
    )
    def test_uncharged_package_kernel_fires(self, tmp_path, kernel, module):
        # the hopping kernels the distributed contexts call by name are
        # flop-bearing: one left uncharged must not fall out of the audit
        files = {
            "repro/parallel/ops.py": (
                f"from {module} import {kernel}\n\n"
                "def entry(api, u, v, out):\n"
                f"    return {kernel}(u, v, out=out)\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO503"])
        assert rules_fired(result) == ["REPRO503"]
        assert kernel in result.findings[0].message
        charged = files["repro/parallel/ops.py"].replace(
            "    return", "    yield api.compute(66, kernel='dslash')\n    return"
        )
        result = lint_files(tmp_path, {"repro/parallel/ops.py": charged}, ["REPRO503"])
        assert result.clean

    def test_outside_parallel_package_ignored(self, tmp_path):
        files = {
            "repro/host/ops.py": (
                self.HELPER + "\ndef entry(api, u, v):\n    return matvec(u, v)\n"
            ),
        }
        result = lint_files(tmp_path, files, ["REPRO503"])
        assert result.clean

    #: a machine-side inner product, charged through the context's
    #: ``charge`` before the rank enters the global-sum tree
    DOT = (
        "import numpy as np\n\n"
        "class Context:\n"
        "    def charge(self, kernels, v):\n"
        "        yield self.api.compute(1, kernel='linalg')\n\n"
        "def rank_dot(ctx):\n"
        "    api = ctx.api\n"
        "    def dot(u, v):\n"
        "        partial = np.array([np.vdot(u, v)])\n"
        "{charge}"
        "        return (yield api.global_sum(partial))[0]\n"
        "    return dot\n"
    )

    def test_uncharged_machine_dot_fires(self, tmp_path):
        files = {"repro/parallel/dots.py": self.DOT.format(charge="")}
        result = lint_files(tmp_path, files, ["REPRO503"])
        assert rules_fired(result) == ["REPRO503"]
        assert "vdot" in result.findings[0].message

    def test_charged_machine_dot_passes(self, tmp_path):
        charge = "        yield from ctx.charge({'dot': 1}, u)\n"
        files = {"repro/parallel/dots.py": self.DOT.format(charge=charge)}
        result = lint_files(tmp_path, files, ["REPRO503"])
        assert result.clean


# ---------------------------------------------------------------------------
# REPRO504 snapshot-completeness
# ---------------------------------------------------------------------------


SNAPSHOT_CLASS = """\
class Unit:
    _SNAPSHOT_ATTRS = ({attrs})
{transient}
    def __init__(self):
        self.count = 0
        self.mode = "idle"

    def bump(self):
        self.count += 1
        self.mode = "run"

    def snapshot_state(self):
        return {{n: getattr(self, n) for n in self._SNAPSHOT_ATTRS}}

    def restore_state(self, state):
        for n, v in sorted(state.items()):
            setattr(self, n, v)
"""


class TestSnapshotCompleteness:
    def test_unsnapshotted_mutation_fires(self, tmp_path):
        src = SNAPSHOT_CLASS.format(attrs="'count',", transient="")
        result = lint_files(tmp_path, {"repro/machine/u.py": src}, ["REPRO504"])
        assert rules_fired(result) == ["REPRO504"]
        assert "Unit.mode" in result.findings[0].message

    def test_snapshot_attrs_covers(self, tmp_path):
        src = SNAPSHOT_CLASS.format(attrs="'count', 'mode'", transient="")
        result = lint_files(tmp_path, {"repro/machine/u.py": src}, ["REPRO504"])
        assert result.clean

    def test_transient_declaration_covers(self, tmp_path):
        src = SNAPSHOT_CLASS.format(
            attrs="'count',", transient="    _SNAPSHOT_TRANSIENT = ('mode',)\n"
        )
        result = lint_files(tmp_path, {"repro/machine/u.py": src}, ["REPRO504"])
        assert result.clean

    def test_handwritten_restore_missing_attr_fires(self, tmp_path):
        src = (
            "class Unit:\n"
            "    _SNAPSHOT_ATTRS = ('count', 'mode')\n\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.mode = 'idle'\n\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
            "        self.mode = 'run'\n\n"
            "    def snapshot_state(self):\n"
            "        return {n: getattr(self, n) for n in self._SNAPSHOT_ATTRS}\n\n"
            "    def restore_state(self, state):\n"
            "        self.count = state['count']\n"
        )
        result = lint_files(tmp_path, {"repro/machine/u.py": src}, ["REPRO504"])
        assert rules_fired(result) == ["REPRO504"]
        assert "restore" in result.findings[0].message

    def test_class_without_snapshot_state_ignored(self, tmp_path):
        src = (
            "class Free:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n\n"
            "    def bump(self):\n"
            "        self.x += 1\n"
        )
        result = lint_files(tmp_path, {"repro/machine/u.py": src}, ["REPRO504"])
        assert result.clean

    #: a base that carries shared mutable state *and* the snapshot pair,
    #: and a unit that inherits both (the SCU units over their ladder)
    INHERITED = (
        "class Ladder:\n"
        "    def __init__(self):\n"
        "        self.rung = 0\n\n"
        "    def climb(self):\n"
        "        self.rung += 1\n\n"
        "    def snapshot_state(self):\n"
        "        return {{n: getattr(self, n) for n in self._SNAPSHOT_ATTRS}}\n\n"
        "    def restore_state(self, state):\n"
        "        for n, v in sorted(state.items()):\n"
        "            setattr(self, n, v)\n\n\n"
        "class Unit(Ladder):\n"
        "    _SNAPSHOT_ATTRS = ({attrs})\n\n"
        "    def bump(self):\n"
        "        self.count = 1\n"
    )

    def test_inherited_mutation_audited_on_the_subclass(self, tmp_path):
        # the base never declares what it mutates, the unit forgets it too
        src = self.INHERITED.format(attrs="'count',")
        result = lint_files(tmp_path, {"repro/machine/u.py": src}, ["REPRO504"])
        assert sorted(f.message.split(" is ")[0] for f in result.findings) == [
            "Ladder.rung",
            "Unit.rung",
        ]

    def test_inherited_snapshot_state_makes_a_snapshot_class(self, tmp_path):
        src = self.INHERITED.format(attrs="'count', 'rung'").replace(
            "class Ladder:\n", "class Ladder:\n    _SNAPSHOT_ATTRS = ('rung',)\n\n"
        )
        result = lint_files(tmp_path, {"repro/machine/u.py": src}, ["REPRO504"])
        assert result.clean
        # ... and the unit's own state is held to the same account
        forgot = src.replace("('count', 'rung')", "('rung',)")
        result = lint_files(tmp_path, {"repro/machine/u.py": forgot}, ["REPRO504"])
        assert [f.message.split(" is ")[0] for f in result.findings] == ["Unit.count"]


RESET_CLASS = """\
class Unit:
    _RESET_KEPT = ({kept})

    def __init__(self):
        self.count = 0
        self.mode = "idle"
        self.held = []

    def bump(self, word):
        self.count += 1
        self.mode = "run"
        self.held.append(word)

    def boot_reset(self):
{reset}
"""


class TestBootResetCompleteness:
    """REPRO504's second audit: what ``PartitionRun.finalize`` must reset."""

    def lint(self, tmp_path, kept, reset, extra=""):
        body = "".join(f"        {line}\n" for line in reset)
        src = RESET_CLASS.format(kept=kept, reset=body) + extra
        return lint_files(tmp_path, {"repro/machine/u.py": src}, ["REPRO504"])

    def test_attribute_neither_reset_nor_kept_fires(self, tmp_path):
        result = self.lint(tmp_path, "'count',", ["self.mode = 'idle'"])
        assert [f.message.split(" is ")[0] for f in result.findings] == ["Unit.held"]
        assert "boot_reset" in result.findings[0].message

    def test_rebind_clear_and_kept_cover(self, tmp_path):
        result = self.lint(
            tmp_path, "'count',", ["self.mode = 'idle'", "self.held.clear()"]
        )
        assert result.clean

    def test_reset_in_a_method_boot_reset_calls_counts(self, tmp_path):
        helper = "\n    def _drop(self):\n        self.held = []\n"
        result = self.lint(
            tmp_path, "'count',", ["self.mode = 'idle'", "self._drop()"], helper
        )
        assert result.clean

    def test_generic_setattr_loop_covers_the_declared(self, tmp_path):
        declared = (
            "    _SNAPSHOT_ATTRS = ('mode',)\n"
            "    _SNAPSHOT_TRANSIENT = ('held',)\n"
        )
        loop = [
            "for name in self._SNAPSHOT_ATTRS + self._SNAPSHOT_TRANSIENT:",
            "    setattr(self, name, None)",
        ]
        result = self.lint(tmp_path, "'count',", loop, declared)
        assert result.clean
        result = self.lint(tmp_path, "'count',", loop, declared.splitlines(True)[0])
        assert [f.message.split(" is ")[0] for f in result.findings] == ["Unit.held"]

    def test_seeded_mutation_of_the_production_recv_unit(self, tmp_path):
        """A new transient on ``RecvUnit`` that no declaration names — so
        the declaration-driven reset misses it — trips the gate."""
        scu = (SRC / "machine" / "scu.py").read_text()
        park = "        self.held.append(words)\n"
        assert scu.count(park) == 1
        seeded = scu.replace(park, park + "        self._parked_at = self.sim.now\n")
        files = {"repro/machine/scu.py": seeded}
        found = lint_files(tmp_path, files, ["REPRO504"]).findings
        messages = [f.message for f in found]
        assert any(
            m.startswith("RecvUnit._parked_at") and "boot_reset" in m for m in messages
        ), messages
        files = {"repro/machine/scu.py": scu}
        assert lint_files(tmp_path / "clean", files, ["REPRO504"]).clean


# ---------------------------------------------------------------------------
# the gate: src/ is clean under the whole flow family
# ---------------------------------------------------------------------------


class TestSourceTreeFlowClean:
    def test_source_tree_clean_under_flow_rules(self):
        # the repository allowlist, as test_source_tree_is_clean loads it:
        # its one entry is REPRO501's (the watchdog's LINK_DOWN escalation)
        allowlist = Allowlist.load(find_default_allowlist(SRC))
        engine = LintEngine(
            rules=[get_rule(r) for r in FLOW_RULES], allowlist=allowlist
        )
        result = engine.run([SRC.parent])
        assert result.findings == [], [f.format() for f in result.findings]
        assert result.unused_allow_entries(allowlist) == []


# ---------------------------------------------------------------------------
# runtime regressions for the REPRO504 findings this PR fixed
# ---------------------------------------------------------------------------


class TestSnapshotRegressions:
    DIMS = (2, 1, 1, 1, 1, 1)

    def test_transient_declarations_stay_disjoint(self):
        for cls in (SendUnit, RecvUnit, SerialLink):
            overlap = set(cls._SNAPSHOT_ATTRS) & set(cls._SNAPSHOT_TRANSIENT)
            assert not overlap, f"{cls.__name__}: {overlap}"

    def test_serial_link_in_transit_round_trips(self):
        machine = QCDOCMachine(MachineConfig(dims=self.DIMS))
        link = next(iter(machine.network.links.values()))
        assert "in_transit" in SerialLink._SNAPSHOT_ATTRS
        link.in_transit = 3
        snap = link.snapshot_state()
        assert snap["in_transit"] == 3
        link.in_transit = 0
        link.restore_state(snap)
        assert link.in_transit == 3

    def test_send_unit_consec_resends_round_trips(self):
        machine = QCDOCMachine(MachineConfig(dims=self.DIMS))
        scu = machine.nodes[0].scu
        unit = next(iter(scu.send_units.values()))
        unit._consec_resends = 2
        snap = unit.snapshot_state()
        assert snap["_consec_resends"] == 2
        unit._consec_resends = 0
        unit.restore_state(snap)
        assert unit._consec_resends == 2

    def test_scu_draining_round_trips(self):
        machine = QCDOCMachine(MachineConfig(dims=self.DIMS))
        scu = machine.nodes[0].scu
        scu._draining = True
        snap = scu.snapshot_state()
        assert snap["draining"] is True
        scu._draining = False
        scu.restore_state(snap)
        assert scu._draining is True
