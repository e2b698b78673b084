"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/report.py
    python3 perfbench/report.py --trace --baseline perfbench/baseline.json

Each workload runs at seeds 1-10, each (workload, seed) as one ``run.py``
process with BENCHMARK.json's ``run_seconds``. For each metric the table
gives the median over seeds, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the interquartile distance as a share of the median. An
end-to-end metric is steady when its spread is below a third of its bound;
a spread above its bound, setup_s included, fails the report. With --trace,
one traced run per workload (at the first seed) reports the per-layer
metrics, and its outputs fingerprint must equal the untraced run's at that
seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench_out" / "results"
WORKLOADS = ("fit_models", "dqn_train", "sim_eval")
SEEDS = range(1, 11)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-3000:]}")
    final = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    if record["result"] != final:
        raise RuntimeError(f"{workload} seed {seed}: result file is stale")
    return record


def spread_row(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", type=Path,
                        help="write medians, quartiles and run metadata here")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    baseline = {"seeds": list(SEEDS), "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        records = [run_one(workload, seed, seconds, 0) for seed in SEEDS]
        failed = sum(r["result"]["failed"] for r in records)
        attempted = sum(r["result"]["attempted"] for r in records)
        wrong = [r["meta"]["seed"] for r in records if not r["result"]["correct"]]
        print(f"\n== {workload}: {len(records)} seeds, {failed} of {attempted} "
              f"stage runs failed, incorrect seeds: {wrong or 'none'}")
        print(f"{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}"
              f"{'bound':>7}  unit")
        rows = {}
        for name in records[0]["named"]:
            values = [r["named"][name]["value"] for r in records]
            unit = records[0]["named"][name]["unit"]
            med, q1, q3, spread = spread_row(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "steady" if spread < bound / 3 else (
                    "within" if spread <= bound else "WIDE")
                ok &= spread <= bound
            print(f"{name:<22}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>8.3f}"
                  f"{'' if bound is None else bound:>7}  {unit} {flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": unit, "values": values}
        ok &= failed == 0 and not wrong
        entry = {"metrics": rows, "fingerprints": {
            str(r["meta"]["seed"]): r["fingerprint"] for r in records},
            "meta": {k: v for k, v in records[0]["meta"].items()
                     if k not in ("seed", "workload")}}
        if args.trace:
            traced = run_one(workload, SEEDS[0], seconds, 1)
            same = traced["fingerprint"] == records[0]["fingerprint"]
            ok &= same and traced["result"]["correct"]
            overhead = traced["named"]["trace.overhead_frac"]["value"]
            print(f"traced run, seed {SEEDS[0]}: correct="
                  f"{traced['result']['correct']}, fingerprint equals untraced: "
                  f"{same}, tracing overhead {overhead:.1%}")
            for name, m in traced["named"].items():
                print(f"  {name}: {m['value']:.6g} {m['unit']}")
            entry["per_layer"] = {k: m["value"] for k, m in traced["named"].items()}
        baseline["workloads"][workload] = entry

    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                                 + "\n", encoding="utf-8")
    print(f"\n{'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
