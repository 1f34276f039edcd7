"""qcsh text commands."""

import pytest

from repro.host.qcsh import Qcsh
from repro.host.qdaemon import Qdaemon
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.util.errors import MachineError


class TestQcshTextInterface:
    @pytest.fixture
    def shell(self):
        machine = QCDOCMachine(MachineConfig(dims=(2, 2, 1, 1, 1, 1)), word_batch=8)
        daemon = Qdaemon(machine)
        daemon.boot()
        return Qcsh(daemon, "alice")

    def test_qalloc_and_qstat(self, shell):
        out = shell.execute("qalloc 0 1")
        assert "2x2" in out
        status = shell.execute("qstat")
        assert "4 healthy" in status and "1 active jobs" in status

    def test_qalloc_with_folding(self, shell):
        out = shell.execute("qalloc 0,1")
        assert "4" in out  # 2x2 folded into a 4-ring

    def test_qfree(self, shell):
        shell.execute("qalloc 0 1")
        assert shell.execute("qfree") == "freed"
        assert "0 active jobs" in shell.execute("qstat")

    def test_qhist(self, shell):
        shell.execute("qstat")
        hist = shell.execute("qhist")
        assert "status" in hist

    def test_unknown_command(self, shell):
        with pytest.raises(MachineError, match="unknown command"):
            shell.execute("rm -rf /")

    def test_empty_line(self, shell):
        assert shell.execute("   ") == ""

    def test_qalloc_needs_args(self, shell):
        with pytest.raises(MachineError, match="group specs"):
            shell.execute("qalloc")
