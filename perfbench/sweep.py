"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/sweep.py [--seeds 1-10] [--baseline perfbench/baseline.json]
        [--compare perfbench/baseline.json]

Runs every workload of BENCHMARK.json for run_seconds, one process per (seed,
workload), seed-major so that slow drift of the machine spreads over every
workload.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound in
BENCHMARK.json.  ``--baseline`` also writes those figures, with the
environment of the first run, to a JSON file.  ``--compare`` reads such a
file and reports, per metric, how much worse this sweep's median is than its
median, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range of seeds, lo-hi")
    parser.add_argument("--baseline", help="write the summary to this JSON file")
    parser.add_argument("--compare", help="compare medians with this summary file")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            line = run_once(w, seed, seconds)
            runs[w].append(line)
            shown = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
            print(f"seed {seed:3d} {w:<12} correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {shown}", flush=True)

    summary = {}
    ok = True
    for w in workloads:
        summary[w] = {}
        print(f"\n{w}  ({len(seeds)} runs)")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            s = summarize(values)
            summary[w][m["name"]] = s
            bound = m["bound"]
            flag = "ok" if s["spread"] <= bound / 3 else (
                "within bound" if s["spread"] <= bound else "TOO WIDE")
            ok = ok and s["spread"] <= bound
            print(f"  {m['name']:<26} median {s['median']:>14.6g} {m['unit']:<6} "
                  f"q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} spread {s['spread']:7.2%} "
                  f"bound {bound} {flag}")
        ok = ok and all(r["correct"] for r in runs[w])

    if args.compare:
        reference = json.loads(Path(args.compare).read_text())["workloads"]
        print(f"\nmedians against {args.compare} (positive = worse)")
        for w in workloads:
            for m in metrics:
                old = reference[w][m["name"]]["median"]
                new = summary[w][m["name"]]["median"]
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                flag = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                ok = ok and worse <= m["bound"]
                print(f"  {w:<12} {m['name']:<14} {old:>12.6g} -> {new:>12.6g}  "
                      f"{worse:+7.2%} bound {m['bound']} {flag}")

    if args.baseline:
        env_file = HERE / "out" / f"{workloads[0]}-seed{seeds[0]}-trace0.json"
        env = json.loads(env_file.read_text())["environment"]
        Path(args.baseline).write_text(json.dumps({
            "seeds": seeds, "run_seconds": seconds, "environment": env,
            "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
