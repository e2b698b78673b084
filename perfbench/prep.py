"""Make a workload's inputs before any timing starts.

    python3 perfbench/prep.py --workload dqn_train --seed 3 --prep DIR

Makes, with the commit under test, what the workload's timed stages read:
the synthetic cohort and, depending on the workload, the fitted checkpoints
and the Q-network. Exits 1 if a stage fails.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import bootstrap

bootstrap.pin_threads()

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--prep", type=Path, required=True)
    args = parser.parse_args()
    bootstrap.use_checkout_source()
    sizes = workloads.Sizes()
    workloads.make_cohort(args.seed, sizes, args.prep)
    conf = args.prep / "conf"
    conf.mkdir(parents=True, exist_ok=True)
    for stage in workloads.prep_stages(args.workload, sizes, args.prep):
        stage.write_config(conf)
        error = workloads.run_stage(stage, conf, args.seed)
        if error is not None:
            print(f"prep stage {stage.label} failed: {error}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
