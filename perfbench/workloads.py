"""Workload definitions: which CLI stages each workload times, on what inputs.

Every workload is a list of ``sepsim`` CLI stages. The inputs of the timed
stages (the synthetic cohort, the fitted checkpoints, the Q-network) are
made first, in a separate process, from the workload seed.

    fit_models  times train-vae, train-state (rnn, vae_mdn_rnn), train-heads
                (raw and latent). Autodiff graph building, backward and Adam.
    dqn_train   times train-agent on the vae_mdn_rnn simulator: a single-row
                env.step and a 64-row td_update per step.
    sim_eval    times eval (rnn and vae_mdn_rnn, teacher-forced, closed-loop,
                greedy policy histogram) and a random-policy rollout.
                Inference and CSV writing only.

Every seed draws its episodes from one fixed ground-truth system, which
caps stays at 20 steps and has a low hazard, so most episodes run the full
20 steps, as stays do in the fixed 72-hour sepsis windows of the paper's
cohort. The seed changes the patients, not how hard the problem is or how
much work it takes, so seed-to-seed spread stays small.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("fit_models", "dqn_train", "sim_eval")

# The stage group each workload times; the groups before it are its inputs.
GROUPS = ("fit", "agent", "sim")
TIMED_GROUP = {"fit_models": "fit", "dqn_train": "agent", "sim_eval": "sim"}

SYSTEM_SEED = 0        # the ground-truth dynamics every seed samples from
GENERATOR = {"max_len": 20, "step_bias": -5.0}

# Simulator settings of every stage that steps an env. With threshold
# termination an episode ends where the heads put p_terminate >= 0.5, which
# they learn at the 20-step cap, so rollouts have nearly the same length on
# every seed; Bernoulli draws made the steps per repeat vary by 17%.
SIM = {"max_steps": 20, "termination_mode": "threshold"}

SPLIT_FRACTION = 0.8   # the CLI's default train/validation split

# How much of a change in the host's speed, as the refclock kernel sees it,
# shows in each workload's time: the slope of log(median repeat time) on
# log(median kernel time) over ten 30 s runs, seeds 1-10, on a 2-vCPU
# Firecracker VM. It came out 1.09 for fit_models, 0.45 for dqn_train and
# 0.93 for sim_eval. Set-up scales with the full kernel time: over the same
# runs, exponents of 0.5, 0.75 and 1 left the run-to-run spread of set-up
# time smallest at 1.
ELASTICITY = {"fit_models": 1.0, "dqn_train": 0.5, "sim_eval": 1.0}
SETUP_ELASTICITY = 1.0

# train-state's learning rate. At the CLI's default of 1e-3 the vae_mdn_rnn
# model predicts no better than the mean after three epochs, so its quality
# check could not tell a trained model from a broken one; at 1e-2 both
# variants beat the mean by far on every seed, at the same cost.
STATE_LEARNING_RATE = 0.01


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's stated input size."""

    episodes: int = 150           # about 2,700 state rows
    vae_epochs: int = 10
    state_epochs: int = 3
    head_epochs: int = 3
    dqn_steps: int = 1000
    eval_episodes: int = 12
    policy_episodes: int = 12
    rollout_episodes: int = 16


@dataclass(frozen=True)
class Stage:
    """One CLI invocation: ``sepsim <stage> --config <conf>/<label>.json``."""

    label: str
    stage: str
    out: Path
    section: dict

    def argv(self, conf_dir: Path, seed: int) -> list[str]:
        return [self.stage, "--config", str(conf_dir / f"{self.label}.json"),
                "--out", str(self.out), "--seed", str(seed)]

    def write_config(self, conf_dir: Path) -> None:
        doc = {self.stage.replace("-", "_"): self.section}
        (conf_dir / f"{self.label}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def cohort_path(prep: Path) -> Path:
    return prep / "data" / "cohort.csv"


def raw_checkpoints(models: Path) -> dict:
    return {"state": str(models / "state_rnn" / "state_rnn.json"),
            "termination": str(models / "heads_raw" / "termination.json"),
            "outcome": str(models / "heads_raw" / "outcome.json")}


def latent_checkpoints(models: Path) -> dict:
    return {"state": str(models / "state_vae_mdn_rnn" / "state_vae_mdn_rnn.json"),
            "termination": str(models / "heads_latent" / "termination.json"),
            "outcome": str(models / "heads_latent" / "outcome.json"),
            "encoder": str(models / "vae" / "vae.json")}


def qnet_path(prep: Path) -> Path:
    return prep / "agent" / "qnet.json"


def group_stages(group: str, sizes: Sizes, prep: Path, dst: Path) -> list[Stage]:
    """Stages of one group. Inputs come from ``prep``, outputs go to ``dst``;
    the fit group reads the VAE it has just written to ``dst``."""
    data = str(cohort_path(prep))
    if group == "fit":
        encoder = str(dst / "vae" / "vae.json")
        state = {"data": data, "epochs": sizes.state_epochs,
                 "learning_rate": STATE_LEARNING_RATE}
        heads = {"data": data, "epochs": sizes.head_epochs}
        return [
            Stage("train-vae", "train-vae", dst / "vae",
                  {"data": data, "epochs": sizes.vae_epochs}),
            Stage("train-state-rnn", "train-state", dst / "state_rnn",
                  {**state, "variant": "rnn"}),
            Stage("train-state-vae_mdn_rnn", "train-state",
                  dst / "state_vae_mdn_rnn",
                  {**state, "variant": "vae_mdn_rnn", "encoder": encoder}),
            Stage("train-heads-raw", "train-heads", dst / "heads_raw", heads),
            Stage("train-heads-latent", "train-heads", dst / "heads_latent",
                  {**heads, "encoder": encoder}),
        ]
    if group == "agent":
        dqn = {"total_steps": sizes.dqn_steps,
               "epsilon_decay_steps": sizes.dqn_steps // 2}
        return [Stage("train-agent", "train-agent", dst / "agent",
                      {"data": data, "variant": "vae_mdn_rnn",
                       "checkpoints": latent_checkpoints(prep),
                       "dqn": dqn, **SIM})]
    if group == "sim":
        variants = [{"name": "rnn", **raw_checkpoints(prep)},
                    {"name": "vae_mdn_rnn", **latent_checkpoints(prep)}]
        return [
            Stage("eval", "eval", dst / "eval",
                  {"data": data, "variants": variants,
                   "eval_episodes": sizes.eval_episodes,
                   "qnet": str(qnet_path(prep)),
                   "agent_variant": "vae_mdn_rnn",
                   "policy_episodes": sizes.policy_episodes, **SIM}),
            Stage("rollout", "rollout", dst / "rollout",
                  {"data": data, "variant": "vae_mdn_rnn",
                   "checkpoints": latent_checkpoints(prep), "policy": "random",
                   "episodes": sizes.rollout_episodes, **SIM}),
        ]
    raise ValueError(f"unknown stage group {group!r}")


def make_cohort(seed: int, sizes: Sizes, prep: Path) -> None:
    """Write the workload's cohort CSV: ``sizes.episodes`` episodes of the
    fixed system, drawn with the workload seed."""
    from sepsim.data import (SyntheticDynamicsSpec, export_cohort,
                             generate_synthetic_cohort)

    spec = replace(SyntheticDynamicsSpec.default(seed=SYSTEM_SEED, **GENERATOR),
                   seed=seed)
    path = cohort_path(prep)
    path.parent.mkdir(parents=True, exist_ok=True)
    export_cohort(generate_synthetic_cohort(spec, sizes.episodes), path)


def prep_stages(workload: str, sizes: Sizes, prep: Path) -> list[Stage]:
    """Stages that make the timed stages' inputs, all written under ``prep``."""
    stages = []
    for group in GROUPS[:GROUPS.index(TIMED_GROUP[workload])]:
        stages += group_stages(group, sizes, prep, prep)
    return stages


def timed_stages(workload: str, sizes: Sizes, prep: Path, out: Path) -> list[Stage]:
    return group_stages(TIMED_GROUP[workload], sizes, prep, out)


def setup_files(workload: str, prep: Path) -> dict[str, list[str]]:
    """Checkpoints a fresh process loads before the workload, by loader."""
    latent = latent_checkpoints(prep)
    if workload == "fit_models":
        return {}
    if workload == "dqn_train":
        return {"state": [latent["state"]],
                "head": [latent["termination"], latent["outcome"]],
                "encoder": [latent["encoder"]]}
    raw = raw_checkpoints(prep)
    return {"state": [raw["state"], latent["state"]],
            "head": [raw["termination"], raw["outcome"],
                     latent["termination"], latent["outcome"]],
            "encoder": [latent["encoder"]],
            "qnet": [str(qnet_path(prep))]}


def run_stage(stage: Stage, conf_dir: Path, seed: int) -> str | None:
    """Run one stage through ``sepsim.cli.main``, as the ``sepsim`` command
    does. Returns None on exit code 0, else the name of the exception."""
    from sepsim import cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(stage.argv(conf_dir, seed))
    except SystemExit as exc:
        return f"SystemExit({exc.code})"
    if code == 0:
        return None
    if code == 2:
        return "ConfigError"
    found = re.search(r"^error: (\w+): ", sink.getvalue(), re.MULTILINE)
    return found.group(1) if found else f"exit code {code}"
