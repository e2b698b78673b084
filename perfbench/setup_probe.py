"""Time one fresh process's set-up for a workload; prints ``{"setup_s": x}``.

    python3 perfbench/setup_probe.py --workload sim_eval --seed 3 --prep DIR

Set-up is importing ``sepsim``, loading the cohort CSV, deriving its split
and normalization, and loading every checkpoint the workload reads.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.pin_threads()

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--prep", type=Path, required=True)
    args = parser.parse_args()

    bootstrap.use_checkout_source()
    from sepsim.agent import QNetwork
    from sepsim.data import load_cohort, prepare_cohorts
    from sepsim.dynamics import StateModel
    from sepsim.heads import BinaryHead
    from sepsim.vae import load_encoder

    loaders = {"state": StateModel.load, "head": BinaryHead.load,
               "encoder": load_encoder, "qnet": QNetwork.load}
    cohort = load_cohort(workloads.cohort_path(args.prep))
    prepare_cohorts(cohort, fraction=workloads.SPLIT_FRACTION, seed=args.seed)
    for kind, paths in workloads.setup_files(args.workload, args.prep).items():
        for path in paths:
            loaders[kind](path)
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
