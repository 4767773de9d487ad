"""Run every workload over several seeds and report medians and quartile spreads.

    python3 perfbench/suite.py --seeds 10
    python3 perfbench/suite.py --seeds 10 --baseline perfbench/baseline.json

The workloads, the seconds per run and the bounds are BENCHMARK.json's.
Each run of ``run.py`` is its own process, so ``peak_rss_mb`` belongs to
that workload alone; seeds go in the outer loop so slow spells of the
machine fall on every workload alike. The unscaled stage medians and the
scale of each run (run.py's ``# raw`` line) are summarised as ``raw.*``. For each metric the spread is the
distance between the first and third quartile of the runs, as a share of
their median; a spread above a third of the metric's bound in
BENCHMARK.json is flagged. ``--baseline`` also records the environment, the
commit and every median in a JSON file, under ``trace0`` or ``trace1``.
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
RUN_TIMEOUT_S = 180


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    tagged = {}  # the JSON of the "# env {...}" and "# raw {...}" lines
    for line in lines:
        if line.startswith(("# env ", "# raw ")):
            tagged[line[2:5]] = json.loads(line[6:])
    result = json.loads(lines[-1])
    for name, value in tagged.get("raw", {}).items():
        unit = "ratio" if name == "scale" else "s"
        result["metrics"][f"raw.{name}"] = {"value": value, "unit": unit}
    return tagged.get("env", {}), result


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, counting up from --first-seed")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", metavar="PATH", help="write medians and environment here")
    args = parser.parse_args(argv)

    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    passes = {w: [0, 0] for w in workloads}  # [failed, attempted]
    units: dict[str, str] = {}
    env: dict = {}
    seed_pairs: dict[int, list[int]] = {}  # offset -> [cohort seed, optimizer seed]
    ok = True
    for seed in seeds:
        for workload in workloads:
            env, result = _run(workload, seed, seconds, args.trace)
            seed_pairs[seed] = [env.get("cohort_seed"), env.get("optimizer_seed")]
            ok = ok and result["correct"]
            passes[workload][0] += result["failed"]
            passes[workload][1] += result["attempted"]
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]

    summary: dict[str, dict] = {}
    for workload in workloads:
        failed, attempted = passes[workload]
        print(f"\n{workload} ({len(seeds)} seeds, {attempted} passes)")
        print(f"  {'failed_frac':<48} {failed / attempted:>19.6g} ratio")
        summary[workload] = {"failed_frac": {"value": failed / attempted, "unit": "ratio",
                                             "passes": attempted}}
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "  > bound/3" if bound is not None and spread > bound / 3 else ""
            print(f"  {name:<48} median {med:>12.6g} {units[name]:<8} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{flag}")
            summary[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name],
                "runs": len(vals),
            }
    if args.baseline:
        path = Path(args.baseline)
        record = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        record["environment"] = {
            k: v for k, v in env.items() if k not in ("workload", "cohort_seed", "optimizer_seed")
        }
        record["commit"] = _commit()
        record[f"trace{args.trace}"] = {
            "seconds": seconds, "seeds": seed_pairs, "workloads": summary,
        }
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
