"""Record the repo benchmark's figures as a committed ``BENCH_<pr>.json``.

Run from the root of a checkout::

    python3 tools/bench_record.py --pr 19 --repeat 5
    python3 tools/bench_record.py --pr 18 --repeat 5 --checkout ../parent
    python3 tools/bench_record.py --compare BENCH_19.json

Recording runs ``perfbench/run.py --repeat N`` (seeds 1..N, one fresh
process per run, at ``BENCHMARK.json``'s run length unless ``--seconds``
is given) and one ``--trace 1`` run per workload (seed 1), both from the
checkout named by ``--checkout`` (default: this one).  It writes
``BENCH_<pr>.json`` at the root of this repository: the measured
checkout's git sha, the host fingerprint and backend the runs stamped,
every run's end-to-end figures with their ``correct`` / ``failed``
verdict, each end-to-end metric's median and interquartile range, and the
traced run's per-layer figures.

``--compare FILE`` diffs ``FILE`` against the newest older ``BENCH_*.json``
and flags every end-to-end median that moved by more
than the older file's recorded interquartile range.  Per-layer figures
come from one traced run, so they are listed without a flag.  The exit
status is 1 when any run of either file was incorrect or failed an
operation.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import re
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: One per-run line of ``run.py --repeat``: workload, seed, verdicts and
#: the figures dict (a Python literal) at the end of the line.
RUN_LINE = re.compile(
    r"^(?P<workload>\w+) seed (?P<seed>\d+): .*correct=(?P<correct>\w+) "
    r"attempted=(?P<attempted>\d+) failed=(?P<failed>\d+) .*?(?P<figures>\{.*\})$"
)


def run_perfbench(checkout: str, arguments: List[str]) -> str:
    completed = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"), *arguments],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )
    if completed.returncode not in (0, 1):
        raise SystemExit(f"perfbench exited with {completed.returncode}: {arguments}")
    return completed.stdout


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, first and third quartile and their distance."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }


def record(args: argparse.Namespace) -> int:
    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    document: Dict[str, Any] = {
        "pr": args.pr,
        "repeat": args.repeat,
        "seconds": seconds,
        "workloads": {},
    }
    worst = 0
    for name in names:
        output = run_perfbench(
            checkout,
            ["--repeat", str(args.repeat), "--workload", name, "--seconds", str(seconds)],
        )
        runs = []
        for line in output.splitlines():
            match = RUN_LINE.match(line)
            if match is None:
                continue
            runs.append(
                {
                    "seed": int(match["seed"]),
                    "correct": match["correct"] == "True",
                    "attempted": int(match["attempted"]),
                    "failed": int(match["failed"]),
                    "metrics": ast.literal_eval(match["figures"]),
                }
            )
        if len(runs) != args.repeat:
            raise SystemExit(f"{name}: parsed {len(runs)} of {args.repeat} runs")
        traced = run_perfbench(
            checkout,
            ["--workload", name, "--seed", "1", "--seconds", str(seconds), "--trace", "1"],
        ).strip().splitlines()
        stamp = json.loads(traced[-2])["stamp"]
        result = json.loads(traced[-1])
        for key in ("git_sha", "host", "backend", "python"):
            document.setdefault(key, stamp[key])
        document["workloads"][name] = {
            "runs": runs,
            "end_to_end": {
                metric: {
                    "unit": units[metric],
                    **quartiles([run["metrics"][metric] for run in runs]),
                }
                for metric in units
            },
            "per_layer": {
                "correct": result["correct"],
                "failed": result["failed"],
                "metrics": {
                    metric: entry["value"]
                    for metric, entry in result["metrics"].items()
                },
            },
        }
        bad = [run for run in runs if not run["correct"] or run["failed"]]
        if bad or not result["correct"] or result["failed"]:
            worst = 1
        print(f"{name}: {len(runs)} runs, {len(bad)} incorrect or failing", flush=True)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return worst


def bench_files() -> List[Tuple[int, str]]:
    found = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        match = re.search(r"BENCH_(\d+)\.json$", path)
        if match is not None:
            found.append((int(match.group(1)), path))
    return sorted(found)


def compare(args: argparse.Namespace) -> int:
    with open(args.compare) as handle:
        new = json.load(handle)
    older = [path for pr, path in bench_files() if pr < new["pr"]]
    if not older:
        raise SystemExit(f"no BENCH_*.json older than PR {new['pr']}")
    with open(older[-1]) as handle:
        old = json.load(handle)
    print(f"PR {old['pr']} ({old['git_sha'][:10]}) -> PR {new['pr']} ({new['git_sha'][:10]})")
    if old["host"] != new["host"] or old["backend"] != new["backend"]:
        print(f"  host or backend differ: {old['host']} {old['backend']} / "
              f"{new['host']} {new['backend']}")
    worst = 0
    for name, workload in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            print(f"{name}: not recorded in PR {old['pr']}")
            continue
        for side in (before, workload):
            if any(not run["correct"] or run["failed"] for run in side["runs"]):
                worst = 1
        print(f"{name}:")
        for metric, entry in workload["end_to_end"].items():
            base = before["end_to_end"][metric]
            move = entry["median"] - base["median"]
            ratio = entry["median"] / base["median"] if base["median"] else float("nan")
            flag = "MOVED" if abs(move) > base["iqr"] else "within IQR"
            print(
                f"  {metric:14s} {base['median']:12.4f} -> {entry['median']:12.4f} "
                f"{entry['unit']:4s} x{ratio:.3f}  (old IQR {base['iqr']:.4f})  {flag}"
            )
        layers = workload["per_layer"]["metrics"]
        for metric, value in layers.items():
            previous = before["per_layer"]["metrics"].get(metric)
            if previous is not None and previous != value:
                print(f"  layer {metric:38s} {previous:12.4f} -> {value:12.4f}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="number of the BENCH_<pr>.json to write")
    parser.add_argument("--repeat", type=int, default=5, metavar="N")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload")
    parser.add_argument("--checkout", default=ROOT, help="checkout whose perfbench runs")
    parser.add_argument("--compare", metavar="FILE")
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.pr is None:
        parser.error("--pr is required unless --compare is given")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
