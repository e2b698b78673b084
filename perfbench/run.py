"""Benchmark of the sepsim pipeline, driven through its CLI.

    python3 perfbench/run.py --workload fit_models --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. The run
  1. makes the workload's inputs from --seed in a child process (synthetic
     cohort, and for dqn_train and sim_eval the checkpoints, and for sim_eval
     the Q-network), with the code under test;
  2. repeats the workload's CLI stages in this process until --seconds have
     passed, each time into the same emptied directory, and times set-up in
     a fresh child process before the first repeat and after every repeat
     (setup_s is the median of these, spread over the whole run). Before
     every stage, after the last one and around every set-up probe it runs
     the reference kernel of ``refclock``, and it states the end-to-end
     timings in reference seconds, so that the host's drifting speed
     cancels out; the raw timings are printed too;
  3. checks that every stage exited 0, that every number in the outputs is
     finite, and that every repeat wrote byte-identical files;
  4. prints metrics by name with units, then one JSON line: the end-to-end
     metrics with --trace 0, the per-layer metrics with --trace 1.

A traced run alternates untraced and traced repeats, so it can state the
tracing overhead and check that tracing leaves the outputs unchanged. One
client calls the system serially (a closed loop), so each workload reports
work per second at a fixed input size; no latency limit applies.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.pin_threads()

import checks  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from layers import (OVERHEAD, PERCENTILE_FUNCTIONS, LayerProbe,  # noqa: E402
                    per_layer_names, unit_of)

MIN_REPEATS = 2          # byte-identity needs two; a traced run needs one of each
START_LIMIT_S = 140      # start no repeat after this, to exit within 180 s
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "work_per_s": "1/s", "tf_mse_rnn": "z2"}
# Printed by name but not in the result line: raw timings and scores whose
# spread over seeds is wider than any bound the benchmark may set.
PRINTED_ONLY = {"raw_setup_s": "s", "raw_wall_s": "s", "raw_work_per_s": "1/s",
                "ref_kernel_ms": "ms", "recon_mse": "z2",
                "tf_mse_vae_mdn_rnn": "z2", "tf_nmse_vae_mdn_rnn": "ratio"}

# What work_per_s counts on each workload, under its own name.
WORK_NAMES = {"fit_models": ("fit_rows_per_s", "rows/s"),
              "dqn_train": ("dqn_steps_per_s", "steps/s"),
              "sim_eval": ("sim_steps_per_s", "steps/s")}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def child(script: str, args: argparse.Namespace, prep: Path) -> str:
    """Run a sibling script to completion; returns its standard output."""
    cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / script),
           "--workload", args.workload, "--seed", str(args.seed),
           "--prep", str(prep)]
    done = subprocess.run(cmd, env=bootstrap.child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def setup_sample(args: argparse.Namespace, prep: Path) -> tuple[float, float]:
    """One fresh process's set-up time, and the mean reference kernel time
    just before and just after it."""
    before = refclock.measure()
    setup = json.loads(child("setup_probe.py", args, prep).splitlines()[-1])["setup_s"]
    return setup, (before + refclock.measure()) / 2


def git_commit() -> str:
    if not (bootstrap.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": bootstrap.BLAS_THREADS, "git_commit": git_commit(),
            "sizes": asdict(workloads.Sizes())}


def repeat(stages, conf: Path, seed: int, out: Path, traced: bool) -> dict:
    """Run the timed stages once into an emptied ``out``."""
    if out.exists():
        shutil.rmtree(out)
    gc.collect()   # every repeat starts from the same collector state
    probe = LayerProbe(full=traced)
    try:
        errors, refs, wall = [], [], 0.0
        for stage in stages:
            refs.append(refclock.measure())
            start = time.perf_counter()
            error = workloads.run_stage(stage, conf, seed)
            wall += time.perf_counter() - start
            if error is not None:
                errors.append(f"{stage.label}: {error}")
        refs.append(refclock.measure())
        summary = probe.tracer.summary()
        layer = probe.layer_metrics(summary) if traced else None
    finally:
        probe.tracer.restore()
    zero = {"calls": 0, "total_s": 0.0}
    return {"traced": traced, "wall": wall, "ref": statistics.mean(refs),
            "errors": errors,
            "summary": {k: summary.get(k, zero) for k in
                        ("nn.fit", "agent.train_agent", "env.step")},
            "row_epochs": probe.tracer.counters["fit.row_epochs"],
            "layer": layer, "hashes": checks.file_hashes(out)}


def work_rate(workload: str, rec: dict) -> float:
    """Work per second of one repeat: training rows x epochs per second in
    fit, or env.step calls per second in train_agent or in the stages."""
    s = rec["summary"]
    if workload == "fit_models":
        return rec["row_epochs"] / s["nn.fit"]["total_s"]
    if workload == "dqn_train":
        return s["env.step"]["calls"] / s["agent.train_agent"]["total_s"]
    return s["env.step"]["calls"] / rec["wall"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def reference_wall(workload: str, rec: dict) -> float:
    return refclock.to_reference(rec["wall"], rec["ref"],
                                 workloads.ELASTICITY[workload])


def overhead(workload: str, records: list[dict]) -> float:
    """Median over traced repeats of wall / mean wall of the untraced repeats
    next to it, minus 1, in reference seconds. Neighbours in time share the
    host's speed, which on a shared machine drifts by more than the tracing
    costs."""
    ratios = []
    for i, rec in enumerate(records):
        if rec["traced"]:
            near = [reference_wall(workload, r)
                    for r in records[max(i - 1, 0):i + 2] if not r["traced"]]
            ratios.append(reference_wall(workload, rec) / statistics.mean(near))
    return statistics.median(ratios) - 1.0


def per_layer(workload: str, records: list[dict]) -> dict:
    """Mean per repeat over traced repeats; percentiles over all samples."""
    traced = [r for r in records if r["traced"]]
    out = {}
    for fn in PERCENTILE_FUNCTIONS:
        pooled = [d for r in traced for d in r["layer"][1][fn]]
        out[f"{fn}.p50_us"] = percentile(pooled, 50) * 1e6
        out[f"{fn}.p99_us"] = percentile(pooled, 99) * 1e6
        out[f"{fn}.samples"] = len(pooled)
    out[OVERHEAD] = overhead(workload, records)
    for name in per_layer_names():
        if name not in out:
            out[name] = sum(r["layer"][0][name] for r in traced) / len(traced)
    return {name: out[name] for name in per_layer_names()}


def measure(args: argparse.Namespace) -> dict:
    """Everything runs in the current directory, with relative paths in the
    stage configs, so the outputs (manifests hash their config) do not
    depend on where the checkout is and fingerprints compare across runs."""
    prep, out, conf = Path("prep"), Path("out"), Path("conf")
    child("prep.py", args, prep)
    setups = [setup_sample(args, prep)]

    bootstrap.use_checkout_source()
    sizes = workloads.Sizes()
    stages = workloads.timed_stages(args.workload, sizes, prep, out)
    conf.mkdir(parents=True)
    for stage in stages:
        stage.write_config(conf)

    records = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(repeat(stages, conf, args.seed, out, traced))
        setups.append(setup_sample(args, prep))
        now = time.perf_counter()
        if ((len(records) >= MIN_REPEATS and now - loop_start >= args.seconds)
                or now - T0 > START_LIMIT_S):
            break

    errors = [e for r in records for e in r["errors"]]
    attempted = len(stages) * len(records)
    fingerprints = sorted({checks.fingerprint(r["hashes"]) for r in records})
    problems = [f"stage failed: {e}" for e in errors]
    if len(fingerprints) != 1:
        problems.append(f"repeats wrote different outputs: {fingerprints}")
    if len(records) < MIN_REPEATS:
        problems.append("fewer than two repeats, byte-identity not checked")
    problems += [f"non-finite numbers in {f}" for f in checks.non_finite_outputs(out)]

    scores = {}
    if not errors:
        models = out if args.workload == "fit_models" else prep
        scores = checks.quality(prep, models, args.seed)
        problems += checks.quality_problems(scores)
        problems += cross_check(args.workload, prep, out, args.seed, scores)

    plain = [r for r in records if not r["traced"]]
    rates = [work_rate(args.workload, r) for r in plain] if not errors else [0.0]
    # Work per reference second: a raw second of the repeat is
    # to_reference(1.0, ...) reference seconds.
    elasticity = workloads.ELASTICITY[args.workload]
    ref_rates = ([rate / refclock.to_reference(1.0, r["ref"], elasticity)
                  for rate, r in zip(rates, plain)] if not errors else [0.0])
    kernel_times = [s[1] for s in setups] + [r["ref"] for r in records]
    end_to_end = {
        "setup_s": statistics.median(
            refclock.to_reference(*s, workloads.SETUP_ELASTICITY) for s in setups),
        "wall_s": statistics.median(reference_wall(args.workload, r) for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": statistics.median(ref_rates),
        "raw_setup_s": statistics.median(s[0] for s in setups),
        "raw_wall_s": statistics.median(r["wall"] for r in plain),
        "raw_work_per_s": statistics.median(rates),
        "ref_kernel_ms": statistics.median(kernel_times) * 1e3,
        **{name: score for name, (score, _) in scores.items()},
    }
    if "tf_mse_vae_mdn_rnn" in scores:
        # The VAE's latent scale differs from seed to seed, so the latent
        # error is given as a share of predicting the mean.
        score, mean_score = scores["tf_mse_vae_mdn_rnn"]
        end_to_end["tf_nmse_vae_mdn_rnn"] = score / mean_score
    return {"records": records, "problems": problems, "failed": len(errors),
            "attempted": attempted,
            "fingerprint": fingerprints[0] if len(fingerprints) == 1 else None,
            "end_to_end": end_to_end, "setup_samples": setups,
            "per_layer": per_layer(args.workload, records) if args.trace else None}


def cross_check(workload: str, prep: Path, out: Path, seed: int,
                scores: dict) -> list[str]:
    """The benchmark's quality scores must equal the stages' own numbers;
    the eval stage scores only its first eval_episodes episodes."""
    if workload == "fit_models":
        path, pairs = out / "vae" / "metrics.json", {"heldout_recon_mse": "recon_mse"}
    elif workload == "sim_eval":
        path, pairs = out / "eval" / "metrics.json", {
            "tf_mse_rnn": "tf_mse_rnn", "tf_mse_vae_mdn_rnn": "tf_mse_vae_mdn_rnn"}
        scores = checks.quality(prep, prep, seed, workloads.Sizes().eval_episodes)
    else:
        return []
    reported = json.loads(path.read_text(encoding="utf-8"))
    return [f"{path.name}: {k}={reported[k]!r} but the benchmark scored {scores[v]!r}"
            for k, v in pairs.items() if reported[k] != scores[v][0]]


def report(args: argparse.Namespace, result: dict) -> tuple[dict, dict]:
    """Print every metric by name with its unit. Returns the final result
    object and all named metrics, including the workload's own name for
    work_per_s and failed_frac, which the result object cannot carry."""
    e2e = result["end_to_end"]
    work_name, work_unit = WORK_NAMES[args.workload]
    attempted, failed = result["attempted"], result["failed"]
    print(f"repeats: {len(result['records'])}  fingerprint: {result['fingerprint']}")
    print("set-up samples (raw s, kernel ms): "
          f"{[(round(s, 4), round(k * 1e3, 2)) for s, k in result['setup_samples']]}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items() if k in e2e}
    named = {work_name: {"value": e2e["work_per_s"], "unit": work_unit},
             "failed_frac": {"value": failed / max(attempted, 1), "unit": "ratio"},
             **{k: {"value": e2e[k], "unit": u}
                for k, u in PRINTED_ONLY.items() if k in e2e},
             **metrics}
    for name, m in named.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed {failed} of {attempted} stage runs")
    final = {"correct": not result["problems"], "attempted": attempted,
             "failed": failed, "metrics": metrics}
    return final, named


def save_result(args, meta: dict, result: dict, final: dict, named: dict) -> None:
    """Keep the run's full record under .perfbench_out/results/."""
    path = bootstrap.OUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    repeats = [{"traced": r["traced"], "wall": r["wall"], "ref": r["ref"],
                "errors": r["errors"],
                "fingerprint": checks.fingerprint(r["hashes"])}
               for r in result["records"]]
    doc = {"meta": meta, "result": final, "named": named,
           "problems": result["problems"], "fingerprint": result["fingerprint"],
           "repeats": repeats, "setup_samples": result["setup_samples"]}
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (bootstrap.SRC / "sepsim" / "__init__.py").is_file():
        print(f"error: no sepsim source under {bootstrap.SRC}", file=sys.stderr)
        return 2
    work = bootstrap.OUT / "work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    home = Path.cwd()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        result = measure(args)
        meta = run_metadata(args)
        print(f"meta: {json.dumps(meta, sort_keys=True)}")
        final, named = report(args, result)
        save_result(args, meta, result, final, named)
    except (bootstrap.MissingSource, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
