"""``make bench-ab``: alternating pairs of one benchmark workload, base vs here.

    python3 benchmarks/ab.py --workload dslash-hot --pairs 10 --base HEAD~1
    python3 benchmarks/ab.py --workload dslash-wire --base HEAD~1 --exact
    python3 benchmarks/ab.py --workload torus64-cg --base HEAD~1 --entries
    python3 benchmarks/ab.py --workload torus64-cg --base HEAD~1 --calls

Checks ``--base`` out into a ``git worktree`` under the temporary
directory (``$TMPDIR``, else ``/tmp``), then runs ``python3 bench/run.py
--workload W --seed i`` for ``i = 1..pairs`` in that checkout and in the
working tree, alternating which goes first, and prints each pair's
``wall_s``, ``setup_s`` and ``peak_rss_mb`` and the median of the
per-pair ratios (here / base; below 1 is better), each side's median
and quartiles, how many pairs the working tree won, and whether a claim
that the metric fell holds: lower in at least nine pairs of ten, and a
median gap wider than the base's interquartile range.  The worktree is
removed afterwards; nothing is written under ``bench/``.  This is the
"ten alternating pairs" rule a speed claim is held to (ROADMAP.md), as
one command.

``--exact`` runs instead one seed-1 pass of the workload in each tree —
the measuring worker ``bench/run.py --workload W --seed 1`` spawns, whose
JSON carries the figures at full precision where the pass prints six
digits — and prints every figure marked ``exact`` that differs (name,
base, here), how many are equal, and each side's failed oracle checks:
"the exact figures are equal except the ones named" as one command.

``--entries`` runs instead, in each tree, the workload's seed-1 set-up
and one repeat with the engines' heap pops tallied by callback
``__qualname__`` over the repeat's counter windows, checks that each
tree's tally sums to its ``sim.events``, and prints base, here and the
difference per callback: "these entries went, nothing else moved" as
one command.

``--calls`` runs instead, in a fresh process per tree, the workload's
seed-1 set-up and one warm repeat, then one more repeat under
``sys.setprofile``, counting Python calls by ``src/repro`` file and C
calls by function name, and prints base, here and the difference: every
file, and every C function whose count changed.  The counts are exact:
two runs of one tree print the same numbers.
"""

import argparse
import heapq
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from metrics import THREAD_PINS  # noqa: E402  (the pins bench/run.py's workers get)

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run(tree: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run in ``tree``: its end-to-end metrics."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False,
    )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if not record["correct"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed its oracles")
    return {name: record["metrics"][name]["value"] for name in METRICS}


def tree_env(tree: Path) -> dict:
    """The environment of a worker that imports ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    env.update(dict.fromkeys(THREAD_PINS, "1"))
    return env


def exact_run(tree: Path, workload: str) -> "tuple[dict, int]":
    """``tree``'s seed-1 worker for ``workload``: its exact figures and
    how many oracle checks failed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--worker", "--workload", workload,
         "--seed", "1", "--spawned-at", repr(time.time())],
        cwd=tree, env=tree_env(tree), stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["exact"], len(result["failures"])


def compare_exact(base: Path, workload: str) -> None:
    """Print the exact figures of ``workload`` that differ between the
    trees, the count of equal ones and each side's failed checks."""
    (was, failed_was), (now, failed_now) = (
        exact_run(tree, workload) for tree in (base, ROOT)
    )
    print(f"{'figure':44s} {'base':>24} {'here':>24}")
    equal = 0
    for name in sorted(set(was) | set(now)):
        if was.get(name) == now.get(name):
            equal += 1
        else:
            print(f"{name:44s} {was.get(name)!r:>24} {now.get(name)!r:>24}")
    print(f"{equal} exact figures equal; failed oracle checks: "
          f"base {failed_was}, here {failed_now}")


def entries_worker(workload: str) -> dict:
    """In a worker whose working directory is the tree: the workload's
    seed-1 set-up, then one repeat with every heap entry the engines pop
    tallied by callback over the repeat's counter windows (the windows
    its ``sim.events`` is summed over), and that ``sim.events``."""
    sys.path.insert(0, str(Path.cwd() / "bench"))
    import workloads
    from repro.sim import core, shard

    popped = Counter()

    def pop(heap):
        entry = heapq.heappop(heap)
        callback = entry[2]
        popped[getattr(callback, "__qualname__", type(callback).__qualname__)] += 1
        return entry

    core.heapq = SimpleNamespace(heappush=heapq.heappush, heappop=pop)
    shard.heappop = pop
    counters, machine_figures = workloads.counters, workloads.machine_figures
    windowed = Counter()

    def counted(machine):
        return dict(counters(machine), entries=Counter(popped))

    def figures(windows, *args, **kwargs):
        for before, after in windows:
            windowed.update(after["entries"] - before["entries"])
        return machine_figures(windows, *args, **kwargs)

    workloads.counters, workloads.machine_figures = counted, figures
    job = workloads.REGISTRY[workload](1)
    job.setup()
    windowed.clear()
    sample = job.repeat()
    return {"entries": windowed, "events": sample.exact.get("sim.events", 0)}


def entries_run(tree: Path, workload: str) -> Counter:
    """``tree``'s entries by callback over one repeat of ``workload``,
    checked against its ``sim.events``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--entries-worker",
         "--workload", workload],
        cwd=tree, env=tree_env(tree), stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    entries = Counter(result["entries"])
    if sum(entries.values()) != result["events"]:
        raise SystemExit(f"{tree}: {sum(entries.values())} entries tallied, "
                         f"sim.events {result['events']}")
    return entries


def print_counts(label: str, was: Counter, now: Counter, total: str = "total",
                 changed_only: bool = False) -> None:
    """Print each name's count in both trees and the change, the most
    changed first — with ``changed_only``, only the names whose count
    changed — then the totals."""
    names = sorted(was.keys() | now.keys(), key=lambda n: (-abs(now[n] - was[n]), n))
    shown = [n for n in names if not changed_only or now[n] != was[n]]
    print(f"{label:44s} {'base':>10} {'here':>10} {'diff':>10}")
    for name in shown:
        print(f"{name:44s} {was[name]:10d} {now[name]:10d} {now[name] - was[name]:+10d}")
    if len(shown) < len(names):
        print(f"({len(names) - len(shown)} unchanged)")
    total_was, total_now = sum(was.values()), sum(now.values())
    print(f"{total:44s} {total_was:10d} {total_now:10d} {total_now - total_was:+10d}")


def compare_entries(base: Path, workload: str) -> None:
    """Print each callback's heap entries in both trees and the change,
    the most changed first, then the totals."""
    was, now = (entries_run(tree, workload) for tree in (base, ROOT))
    print_counts("callback", was, now, total="total (= sim.events)")


def calls_worker(workload: str) -> dict:
    """In a worker whose working directory is the tree: the workload's
    seed-1 set-up and one warm repeat, then one more repeat with every
    call counted — Python calls by the ``src/repro`` file whose code runs,
    C calls by function name, from any frame."""
    sys.path.insert(0, str(Path.cwd() / "bench"))
    import workloads

    package = str(Path.cwd() / "src" / "repro") + os.sep
    python, native = Counter(), Counter()

    def count(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(package):
                python[path[len(package):]] += 1
        elif event == "c_call":
            native[getattr(arg, "__qualname__", type(arg).__qualname__)] += 1

    job = workloads.REGISTRY[workload](1)
    job.setup()
    job.repeat()
    sys.setprofile(count)
    try:
        job.repeat()
    finally:
        sys.setprofile(None)
    return {"python": python, "c": native}


def calls_run(tree: Path, workload: str) -> dict:
    """``tree``'s call counts over one warm repeat of ``workload``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--calls-worker",
         "--workload", workload],
        cwd=tree, env=tree_env(tree), stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {kind: Counter(counts) for kind, counts in result.items()}


def compare_calls(base: Path, workload: str) -> None:
    """Print Python calls by file and the C calls whose count changed, in
    both trees and the difference, the most changed first, then totals."""
    was, now = (calls_run(tree, workload) for tree in (base, ROOT))
    print_counts("Python calls by src/repro file", was["python"], now["python"])
    print_counts("C calls by function", was["c"], now["c"], changed_only=True)


def pairs(base: Path, workload: str, n: int) -> None:
    """``n`` alternating pairs, seeds 1..n: each pair's figures, then each
    metric's spread, median ratio and wins."""
    runs = {tree: {name: [] for name in METRICS} for tree in (base, ROOT)}
    print("pair  " + "  ".join(
        f"{m + ' base':>16} {m + ' here':>16}" for m in METRICS
    ))
    for seed in range(1, n + 1):
        trees = (base, ROOT) if seed % 2 else (ROOT, base)
        got = {tree: run(tree, workload, seed) for tree in trees}
        for tree in trees:
            for name in METRICS:
                runs[tree][name].append(got[tree][name])
        print(f"{seed:4d}  " + "  ".join(
            f"{got[base][name]:16.4g} {got[ROOT][name]:16.4g}"
            for name in METRICS
        ), flush=True)
    for name in METRICS:
        was, now = runs[base][name], runs[ROOT][name]
        ratio = statistics.median(b / a for a, b in zip(was, now))
        wins = sum(b < a for a, b in zip(was, now))
        print(f"{name}: base {spread(was)}  here {spread(now)}  "
              f"median here/base {ratio:.3f}  here lower in {wins}/{len(was)}")
        print(f"  {name} claim: {claim_verdict(was, now, wins)}")


def quartiles(values) -> "tuple[float, float, float]":
    """``(q1, median, q3)``; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> str:
    """``median [q1, q3]``."""
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def claim_verdict(was, now, wins: int) -> str:
    """Whether a claim that ``now`` is lower than ``was`` holds: lower
    in at least nine pairs of ten, and the medians further apart than
    the base's interquartile range."""
    q1, base_median, q3 = quartiles(was)
    gap = base_median - quartiles(now)[1]
    needed = math.ceil(0.9 * len(was))
    holds = wins >= needed and gap > q3 - q1
    return (f"{'holds' if holds else 'does not hold'}: lower in {wins}/{len(was)} "
            f"(needs {needed}), median gap {gap:.4g} vs base IQR {q3 - q1:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--exact", action="store_true",
                        help="compare the exact figures of one seed-1 pass instead")
    parser.add_argument("--entries", action="store_true",
                        help="compare one seed-1 repeat's heap entries by callback instead")
    parser.add_argument("--calls", action="store_true",
                        help="compare one warm seed-1 repeat's call counts instead")
    parser.add_argument("--entries-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--calls-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.entries_worker:
        print(json.dumps(entries_worker(args.workload)))
        return 0
    if args.calls_worker:
        print(json.dumps(calls_worker(args.workload)))
        return 0

    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base = Path(tmp) / "base"
        git = ["git", "-C", str(ROOT)]
        subprocess.run(
            git + ["worktree", "add", "--detach", "--quiet", str(base), args.base],
            check=True,
        )
        try:
            if args.exact:
                print(f"{args.workload}: exact figures, seed 1, "
                      f"base {args.base} vs working tree")
                compare_exact(base, args.workload)
            elif args.entries:
                print(f"{args.workload}: heap entries by callback, seed-1 set-up "
                      f"and one repeat, base {args.base} vs working tree")
                compare_entries(base, args.workload)
            elif args.calls:
                print(f"{args.workload}: calls, seed-1 set-up, one warm repeat "
                      f"and one counted, base {args.base} vs working tree")
                compare_calls(base, args.workload)
            else:
                print(f"{args.workload}: base {args.base} vs working tree, "
                      f"{args.pairs} pairs")
                pairs(base, args.workload, args.pairs)
        finally:
            subprocess.run(
                git + ["worktree", "remove", "--force", str(base)], check=False
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
