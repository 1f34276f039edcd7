"""The repo's benchmark: six workloads, both clocks, per-layer attribution.

    python3 bench/run.py                         # all six, end-to-end pass
    python3 bench/run.py --trace                 # + the traced per-layer pass
    python3 bench/run.py --check-repeat          # two passes, compared
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                 # one run, as the driver calls it

Each workload runs in a fresh worker process (this file again, with
``--worker``), so ``peak_rss_mb`` and the process-wide stencil memo are
per workload; set-up is sampled in ``SETUP_SAMPLES`` fresh processes and
the faster reported (the host's noise only ever adds; ``bench/timing.py``
does the same to the timed region, piece by piece).
``OMP/MKL/OPENBLAS_NUM_THREADS=1`` are pinned in
the workers' environment before numpy is imported.  Every oracle runs on
every repeat; the exit code is non-zero when any check fails.  The last
line of standard output of a one-workload run is the JSON object the
driver's contract prescribes.  See ``bench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (bench/ is on the path only from here on)

#: set-up is sampled in this many fresh processes: the measuring worker's
#: own, and set-up-only workers after it
SETUP_SAMPLES = 2
WORKER_TIMEOUT_S = 170
OUT = HERE / "out"
BY_NAME = {m.name: m for m in metrics.END_TO_END + metrics.PER_LAYER}


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for pin in metrics.THREAD_PINS:
        env[pin] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(name: str, args, trace: bool, setup_only: bool = False) -> dict:
    """Run one worker process to completion; its JSON result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)), "--spawned-at", repr(time.time()),
    ]
    if args.repeats is not None:
        command += ["--repeats", str(args.repeats)]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(
            command, env=worker_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise WorkerFailed(f"{name}: worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3); of fewer than four samples, the lowest and the
    highest stand in for the quartiles."""
    if len(values) < 4:
        return min(values), statistics.median(values), max(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def stat(name: str, value: float, samples) -> dict:
    """A reported figure beside the samples it was taken from."""
    q1, _, q3 = quartiles(samples)
    m = BY_NAME[name]
    return {
        "value": value, "unit": m.unit, "clock": m.clock,
        "n": len(samples), "q1": q1, "q3": q3, "samples": list(samples),
    }


def run_workload(name: str, args, trace: bool) -> dict:
    """One workload's record: end-to-end pass, or traced pass."""
    try:
        result = spawn(name, args, trace)
        setups = [result["setup_s"]]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(name, args, trace, setup_only=True)["setup_s"])
    except WorkerFailed as exc:
        # a workload that dies fails every check it would have made
        n = metrics.N_CHECKS[name]
        return {"error": str(exc), "attempted": n, "failed": n, "failures": ["worker failed"]}
    record = {
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "failures": result["failures"],
        "exact": result["exact"],
        "host": result["host"],
    }
    if trace:
        record["per_layer"] = result["per_layer"]
    else:
        # samples: set-up's are the fresh processes; the wall's are the
        # figure again without each repeat, how far it leans on any one
        record["end_to_end"] = {
            "setup_s": stat("setup_s", min(setups), setups),
            "wall_s": stat("wall_s", result["wall_s"], result["wall_without_one"]),
            "peak_rss_mb": stat("peak_rss_mb", result["peak_rss_mb"], [result["peak_rss_mb"]]),
        }
        record["repeat_walls"] = result["repeat_walls"]
    return record


def show(name: str, record: dict) -> None:
    """Every metric of one record by name, with unit and clock."""
    if "error" in record:
        print(f"{name:14s} FAILED: {record['error']}")
    for metric, s in record.get("end_to_end", {}).items():
        print(
            f"{name:14s} {metric:44s} {s['value']:14.6g} {s['unit']:8s} [{s['clock']}] "
            f"n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}"
        )
    for metric, value in record.get("per_layer", {}).items():
        m = BY_NAME[metric]
        measured = "" if name in m.workloads else "  (not measured on this workload)"
        print(
            f"{name:14s} {metric:44s} {value:14.6g} {m.unit:8s} [{m.clock}] "
            f"{m.source}{measured}"
        )
    if "per_layer" not in record:
        for metric, value in record.get("exact", {}).items():
            m = BY_NAME[metric]
            print(f"{name:14s} {metric:44s} {value:14.6g} {m.unit:8s} [{m.clock}] exact")
    failed, attempted = record["failed"], record["attempted"]
    print(f"{name:14s} {'failed_frac':44s} {failed / attempted:14.6g} ({failed}/{attempted} oracle checks)")
    for label in record["failures"]:
        print(f"{name:14s}   FAILED CHECK: {label}")


def contract_line(record: dict, trace: bool) -> str:
    """The driver's result object (the last line of standard output)."""
    if trace:
        body = {k: {"value": v, "unit": BY_NAME[k].unit} for k, v in record["per_layer"].items()}
    else:
        body = {k: {"value": s["value"], "unit": s["unit"]} for k, s in record["end_to_end"].items()}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": body,
        }
    )


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_pass(names, args, trace: bool) -> dict:
    records = {}
    for name in names:
        records[name] = run_workload(name, args, trace)
        show(name, records[name])
    return records


def compare(first: dict, second: dict) -> int:
    """--check-repeat: two end-to-end passes of the same code.  Exact
    figures must be bit-equal; a host metric is ``unchanged`` when the
    second figure is within its bound of the first, ``unresolved`` when
    either pass's samples (see ``run_workload``) range wider than the bound."""
    bad = unresolved = 0
    for name in first:
        a, b = first[name], second[name]
        if "error" in a or "error" in b:
            print(f"{name:14s} FAILED in one of the passes")
            bad += 1
            continue
        differing = [
            k for k in sorted(set(a["exact"]) | set(b["exact"]))
            if a["exact"].get(k) != b["exact"].get(k)
        ]
        for k in differing:
            print(f"{name:14s} {k:44s} EXACT MISMATCH {a['exact'].get(k)!r} != {b['exact'].get(k)!r}")
        bad += len(differing)
        if not differing:
            print(f"{name:14s} {len(a['exact'])} exact figures bit-equal")
        for m in metrics.END_TO_END:
            sa, sb = a["end_to_end"][m.name], b["end_to_end"][m.name]
            worse = (sb["value"] - sa["value"]) / sa["value"]
            if m.better == "higher":
                worse = -worse
            spread = max(sa["q3"] - sa["q1"], sb["q3"] - sb["q1"]) / sa["value"]
            if spread > m.bound:
                verdict = "unresolved"
                unresolved += 1
            elif worse > m.bound:
                verdict = "DIFFERS"
                bad += 1
            else:
                verdict = "unchanged"
            print(
                f"{name:14s} {m.name:44s} {sa['value']:.6g} -> {sb['value']:.6g} {m.unit} "
                f"({worse:+.1%}, spread {spread:.1%}, bound {m.bound:.0%}) {verdict}"
            )
    print(f"check-repeat: {bad} disagreements, {unresolved} unresolved")
    return 1 if bad else 0


def worker_main(args) -> int:
    import harness

    result = harness.run_worker(
        args.workload, args.seed, args.seconds, args.repeats, bool(args.trace),
        args.smoke, args.setup_only, args.spawned_at,
    )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS),
                        help="time box of one workload's repeat loop")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly this many repeats instead of the time box")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer pass (alone with --workload, "
                        "after the end-to-end pass otherwise)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the end-to-end pass twice and compare the two")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (bench/tests)")
    parser.add_argument("--out", type=Path, default=OUT / "results.json")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from bench/metrics.py")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(metrics.manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure ({ROOT / 'src' / 'repro'} is missing)", file=sys.stderr)
        return 2
    if args.worker:
        return worker_main(args)

    if args.workload and not args.check_repeat:  # one run, as the driver calls it
        record = run_workload(args.workload, args, bool(args.trace))
        show(args.workload, record)
        if "error" in record:
            return 1
        print(contract_line(record, bool(args.trace)))
        return 0 if record["failed"] == 0 else 1

    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    document = {
        "schema": 1,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "setup_samples": SETUP_SAMPLES,
        "end_to_end": run_pass(names, args, trace=False),
    }
    status = 0
    if args.check_repeat:
        document["end_to_end_repeat"] = run_pass(names, args, trace=False)
        status = compare(document["end_to_end"], document["end_to_end_repeat"])
    if args.trace:
        document["traced"] = run_pass(names, args, trace=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"results: {args.out}")
    failed = sum(
        r["failed"] for key in ("end_to_end", "end_to_end_repeat", "traced")
        for r in document.get(key, {}).values()
    )
    return 1 if failed else status


if __name__ == "__main__":
    sys.exit(main())
