#!/usr/bin/env python3
"""The repo's end-to-end benchmark: four workloads, measured in rounds.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs workload ``W`` on inputs made from ``N`` for about ``S`` seconds
and prints every metric by name with its unit; the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``.  ``--trace 0`` reports the end-to-end metrics (tracing off),
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics.  Without ``--workload`` all four workloads run in
turn; ``--out FILE`` saves every sample for ``compare.py``.

A *round* is one fresh ``round.py`` process (closed loop, one driver,
pool of 2 workers, ``PYTHONHASHSEED=0``): start-up, build + converge,
exploration, findings.  A run repeats rounds until the time is used up
and reports each metric's median over its rounds.  Outputs are checked
every run: all rounds must produce one finding-set digest, and it must
equal the serial engine's — pinned under ``expected/`` for seeds 1 and
2, computed in an extra unmeasured round for any other seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import stats
from definitions import (
    END_TO_END, EXACT_COUNTS, PER_LAYER, POOLED, RUN_SECONDS, SIZES, WORKLOADS,
)


MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, *, traced: bool = False,
              serial: bool = False, smoke: bool = False,
              trace_out: Optional[str] = None) -> Dict[str, object]:
    """One fresh round process; returns the JSON object it printed."""
    command = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(time.time()),
    ]
    if traced:
        command.append("--traced")
        if trace_out:
            command += ["--trace-out", trace_out]
    if serial:
        command.append("--serial")
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Own process group: a round that overruns is killed with its pool.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = process.communicate(timeout=ROUND_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode != 0:
        raise RoundFailed(
            f"{workload} round exited {process.returncode}:\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def expected_path(workload: str, seed: int) -> str:
    return os.path.join(HERE, "expected", f"{workload}.{seed}.json")


def load_expected(workload: str, seed: int, smoke: bool) -> Optional[dict]:
    """The pinned record for this input, if one was written for these sizes."""
    if smoke or not os.path.exists(expected_path(workload, seed)):
        return None
    with open(expected_path(workload, seed), encoding="utf-8") as handle:
        record = json.load(handle)
    # JSON has no tuples; compare the sizes as JSON would store them.
    if record["sizes"] != json.loads(json.dumps(SIZES[workload])):
        return None
    return record


def measure(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool, trace_out: Optional[str]) -> List[dict]:
    """Rounds until another would not fit; traced runs alternate T, U."""
    rounds: List[dict] = []
    started = time.perf_counter()
    minimum = (2 if traced else 1) if smoke else MIN_ROUNDS
    while True:
        this_traced = traced and len(rounds) % 2 == 0
        rounds.append(run_round(
            workload, seed, traced=this_traced, smoke=smoke,
            trace_out=trace_out if this_traced and not rounds else None,
        ))
        elapsed = time.perf_counter() - started
        if len(rounds) >= minimum and (
            smoke or elapsed + 0.5 * rounds[-1]["wall_s"] >= seconds
        ):
            return rounds


def check(workload: str, seed: int, rounds: List[dict], smoke: bool) -> dict:
    """Correctness of one run's outputs: determinism and serial parity."""
    notes: List[str] = []
    digests = {r["digest"] for r in rounds}
    nondeterministic = [
        name for name in EXACT_COUNTS
        if len({r["counts"][name] for r in rounds}) > 1
    ]
    expected = load_expected(workload, seed, smoke)
    if expected is not None:
        reference, source = expected["digest"], "expected/"
        drifted = [
            name for name in EXACT_COUNTS
            if rounds[0]["counts"][name] != expected["counts"][name]
        ]
        if drifted:
            notes.append(f"counts differ from expected/: {', '.join(drifted)}")
    elif workload in POOLED:
        reference = run_round(workload, seed, serial=True, smoke=smoke)["digest"]
        source = "serial round"
    else:
        # The workload is the serial engine; only repeatability is checkable.
        reference, source = rounds[0]["digest"], "first round"
    mismatches = sum(1 for r in rounds if r["digest"] != reference)
    if len(digests) > 1:
        notes.append(f"{len(digests)} different finding sets across rounds")
    if nondeterministic:
        notes.append("nondeterministic: " + ", ".join(nondeterministic))
    no_findings = any(r["counts"]["findings"] == 0 for r in rounds)
    if no_findings:
        notes.append("a round found nothing on a scenario with a planted fault")
    return {
        "correct": mismatches == 0 and len(digests) == 1 and not no_findings,
        "parity_mismatches": mismatches,
        "reference": source,
        "nondeterministic": nondeterministic,
        "notes": notes,
    }


def summarize(workload: str, seed: int, rounds: List[dict], verdict: dict) -> dict:
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "counts": rounds[0]["counts"],
        **verdict,
        "end_to_end": {
            name: {"unit": unit,
                   **stats.summarize([r["metrics"][name] for r in untraced])}
            for name, unit, _, _ in END_TO_END
        },
    }
    report["failed_ops_share"] = report["failed"] / max(report["attempted"], 1)
    if traced:
        layers = {
            name: {"unit": unit,
                   **stats.summarize([r["layers"][name] for r in traced])}
            for name, unit, _ in PER_LAYER if name != "trace.overhead_share"
        }
        overhead = (
            stats.median([r["wall_s"] for r in traced])
            / stats.median([r["wall_s"] for r in untraced]) - 1.0
        )
        layers["trace.overhead_share"] = {
            "unit": "ratio", **stats.summarize([overhead])
        }
        report["per_layer"] = layers
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']} seed={report['seed']} "
          f"rounds={report['rounds']} reference={report['reference']}")
    for section in ("end_to_end", "per_layer"):
        for name, row in report.get(section, {}).items():
            print(f"{name:40} {row['median']:.6g} {row['unit']}  "
                  f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]")
    print(f"{'failed_ops_share':40} {report['failed_ops_share']:.6g} ratio  "
          f"[{report['failed']} of {report['attempted']}]")
    print(f"{'parity_mismatches':40} {report['parity_mismatches']} count")
    for name, value in report["counts"].items():
        print(f"{'count.' + name:40} {value} count")
    for note in report["notes"]:
        print(f"!! {note}")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "loadavg": list(os.getloadavg()),
    }


def _git_sha() -> str:
    """HEAD's commit read from ``.git`` files (the driver's checkout has none)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def write_expected(workload: str, seed: int) -> None:
    """Pin the serial engine's digest and the measured flavour's counts."""
    measured = run_round(workload, seed)
    digest = measured["digest"]
    if workload in POOLED:
        digest = run_round(workload, seed, serial=True)["digest"]
        if digest != measured["digest"]:
            raise SystemExit(
                f"{workload} seed {seed}: pooled and serial finding sets "
                f"differ; nothing written"
            )
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    with open(expected_path(workload, seed), "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload, "seed": seed, "sizes": SIZES[workload],
            "digest": digest, "counts": measured["counts"],
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(expected_path(workload, seed), ROOT)}")


def main() -> int:
    names = [name for name, _ in WORKLOADS]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="one small round per workload (CI size)")
    parser.add_argument("--trace-out", default=None,
                        help="write the first traced round's spans as JSONL")
    parser.add_argument("--out", default=None,
                        help="write every sample as JSON, for compare.py")
    parser.add_argument("--write-expected", action="store_true",
                        help="pin digests and exact counts under expected/")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmark needs the program under src/repro", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    if args.write_expected:
        for workload in selected:
            write_expected(workload, args.seed)
        return 0

    traced = bool(args.trace or args.traced)
    env = environment()
    print("env " + json.dumps(env))
    reports = []
    for workload in selected:
        rounds = measure(workload, args.seed, args.seconds, traced,
                         args.smoke, args.trace_out)
        report = summarize(workload, args.seed, rounds,
                           check(workload, args.seed, rounds, args.smoke))
        print_report(report)
        reports.append(report)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "seed": args.seed, "smoke": args.smoke,
                       "workloads": {r["workload"]: r for r in reports}},
                      handle, indent=1)

    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
    }
    section = "per_layer" if traced else "end_to_end"
    result["metrics"] = {
        # One workload is the driver's case: bare metric names.
        (name if args.workload else f"{report['workload']}.{name}"):
            {"value": row["median"], "unit": row["unit"]}
        for report in reports for name, row in report[section].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
