"""Command-line front end for the simulator pipeline.

Subcommands cover the full workflow: synth-data, train-vae, train-state,
train-heads, rollout, train-agent, eval, ntm.  Every stage reads its
section of a JSON run config (section names use underscores, e.g.
"train_vae"), takes --config / --out / --seed flags plus repeatable
--set key=value overrides mirroring the section's keys, and writes
metrics.json plus a manifest.json recording the effective config hash,
the seed, and content hashes of every input and output file.  Outputs
carry no timestamps, so a stage rerun with identical config and seed is
byte-identical.

Stages that need a train/validation split or normalization stats always
recompute them from (data, split_fraction, seed), so separately trained
artifacts line up without passing stats files around.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import re
import sys
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .agent import (DqnConfig, QNetwork, policy_histogram, train_agent,
                    write_reward_curve)
from .checkpoint import (_recording_digests, _sha256_as_read, csv_file,
                         csv_lines, file_sha256, float_cells, write_table)
from .data import (ACTION_COUNT, N_FEATURES, Cohort, NormalizationStats,
                   Outcome, export_cohort, generate_synthetic_cohort,
                   load_cohort, prepare_cohorts, SyntheticDynamicsSpec,
                   write_stats_json)
from .dynamics import (MIN_TEMPERATURE, TEMPERATURE_RULE, StateModel,
                       StateModelConfig, VARIANTS, train_state_model)
from .env import (PatientEnv, RewardSpec, SimConfig, TERMINATION_MODES,
                  replay_physician, rollout)
from .evaluation import (closed_loop_trajectories, compare_policy_distributions,
                         normalized_trajectory_mean, ntm_rows, NTM_HEADER,
                         NTM_MODES, teacher_forced_eval, trajectory_matrices,
                         write_histograms_csv, write_series_csv)
from .heads import BinaryHead, train_heads
from .nn.training import TrainSchedule
from .vae import load_encoder, train_ae, train_vae


class ConfigError(Exception):
    """Invalid or incomplete run configuration; reported as a usage error."""


# ---------------------------------------------------------------- plumbing

def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError, or an int too long to read
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _section(config: dict, name: str, overrides: list[str] | None) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    merged = dict(section)
    for pair in overrides or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            merged[key.strip()] = json.loads(raw)
        except ValueError:
            merged[key.strip()] = raw
    return merged


# ------------------------------------------------------------------ schema

STAGE = None  # a default the stage decides, from the data or other keys


class Key(typing.NamedTuple):
    """A config key: its type (int, float, str, the tuple of strings it may
    be, a dict of the Keys of a JSON object, or a list of one such dict),
    its default, its rule (a key of _RULES), and what its object builds."""
    kind: object
    default: object = STAGE
    rule: str = ""
    build: type | None = None


# a value breaks a rule when `not rule(value)`, so NaN breaks all but ""
_RULES = {"": lambda v: True, ">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0,
          ">= 1": lambda v: v >= 1, "in (0, 1)": lambda v: 0 < v < 1,
          TEMPERATURE_RULE: lambda v: v >= MIN_TEMPERATURE,
          "an existing file": lambda v: Path(v).is_file(),
          "a file-name fragment": lambda v: re.fullmatch(r"[\w.-]*", v, re.ASCII)}
_WANT = {int: "an integer", float: "a finite number", str: "a string",
         dict: "a JSON object", list: "a JSON list"}


def _rows(fn, rules, **defaults) -> dict:
    """Keys that feed `fn`: each key's type and default are its parameter's,
    unless `defaults` names the default. `rules` maps each key to its rule,
    or to the strings it may be; a string of keys leaves the rules to `fn`."""
    if isinstance(rules, str):
        rules = dict.fromkeys(rules.split(), "")
    params = inspect.signature(fn, eval_str=True).parameters
    rows = {}
    for key, rule in rules.items():
        p, enum = params[key], isinstance(rule, tuple)
        kind = rule if enum else (typing.get_args(p.annotation) or (p.annotation,))[0]
        rows[key] = Key(kind, defaults.get(key, p.default), "" if enum else rule)
    return rows


def _value(stage: str, key: str, row: Key, value):
    """`value` as row's type, meeting its rule; anything else is a
    ConfigError that names the stage and the key."""
    kind = row.kind
    if kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if kind is float and type(value) is int and value.bit_length() < 1024:
        value = float(value)
    if isinstance(kind, tuple):
        ok, want = value in kind, "one of " + ", ".join(kind)
    else:
        base = kind if isinstance(kind, type) else type(kind)
        ok = type(value) is base and (base is not float or math.isfinite(value))
        want = _WANT[base]
    if not ok or not _RULES[row.rule](value):
        raise ConfigError(f"{stage}: {key} must be {row.rule if ok else want}, "
                          f"got {value!r}")
    if isinstance(kind, list):
        return [_value(stage, f"{key}[{i}]", Key(kind[0]), item)
                for i, item in enumerate(value)]
    if isinstance(kind, dict):
        value = _typed(stage, value, kind, f"{key}.")
    try:
        return value if row.build is None else row.build(**value)
    except ValueError as exc:
        raise ConfigError(f"{stage}: {key}: {exc}")


def _typed(stage: str, section: dict, rows: dict, prefix: str = "") -> dict:
    """The keys `section` gives, as typed values; a key `rows` lacks is a
    ConfigError, and a null stands for an absent key whose default is STAGE."""
    unknown = sorted(set(section) - set(rows))
    if unknown:
        raise ConfigError(f"unknown config keys for {stage}: "
                          + ", ".join(prefix + k for k in unknown))
    return {k: _value(stage, prefix + k, rows[k], v) for k, v in section.items()
            if not (v is None and rows[k].default is STAGE)}


# The keys of each stage's section; run_stage refuses any other key, so a
# misspelt key is an error instead of a silent default. eval sets each
# variant's `variant` and `checkpoints` itself, so it takes neither.
_FILE = Key(str, STAGE, "an existing file")
_SPLIT = {"data": _FILE, "split_fraction": Key(float, 0.8, "in (0, 1)")}
_SCHEDULE = _rows(TrainSchedule, {"max_epochs": ">= 1", "patience": ">= 1",
                                  "batch_size": ">= 1"}, max_epochs=20, patience=STAGE)
_TRAIN = {**_SPLIT, "epochs": _SCHEDULE.pop("max_epochs"), **_SCHEDULE,
          "learning_rate": Key(float, 1e-3, "> 0")}
_SIM = {**_SPLIT, **_rows(SimConfig, {"temperature": TEMPERATURE_RULE,
                                      "max_steps": ">= 1",
                                      "termination_mode": TERMINATION_MODES}),
        "reward": Key(_rows(RewardSpec, "formulation terminal_magnitude c0 c1 c2 "
                                        "sofa_index lactate_index"),
                      RewardSpec(), build=RewardSpec)}
_CHECKPOINTS = dict.fromkeys(("state", "termination", "outcome", "encoder"), _FILE)
_SIMULATOR = {**_SIM, **_rows(StateModelConfig, {"variant": VARIANTS}),
              "checkpoints": Key(_CHECKPOINTS)}
_POOL = ("train", "val", "all")
_SCHEMA = {
    "synth-data": {"episodes": Key(int, 200, ">= 1"), "generator": Key({
        **_rows(SyntheticDynamicsSpec.default, "latent_dim drift_strength "
                "action_scale noise_scale treatment_pull"),
        **_rows(SyntheticDynamicsSpec, "step_bias obs_noise_scale init_scale max_len")},
        {})},
    "train-vae": {**_TRAIN, "kind": Key(("vae", "ae"), "vae"),
                  "beta": Key(float, STAGE, ">= 0")},
    "train-state": {**_TRAIN, **_rows(StateModelConfig, {
                        "variant": VARIANTS, "window": ">= 1", "rnn_hidden": ">= 1",
                        "n_mixtures": ">= 1"}),
                    "encoder": _FILE, "val_fraction": Key(float, 0.1, "in (0, 1)")},
    "train-heads": {**_TRAIN, "encoder": _FILE, "step_norm": Key(float, 50.0, "> 0"),
                    "val_fraction": Key(float, 0.1, "in (0, 1)"),
                    "suffix": Key(str, "", "a file-name fragment")},
    "rollout": {**_SIMULATOR, "pool_split": Key(_POOL, "val"),
                "policy": Key(("physician", "random"), "physician"),
                "episodes": Key(int, STAGE, ">= 1")},
    "train-agent": {**_SIMULATOR, "pool_split": Key(_POOL, "train"), "dqn": Key(
        _rows(DqnConfig, "gamma epsilon_start epsilon_end epsilon_decay_steps "
              "target_sync buffer_capacity batch_size total_steps learning_rate"),
        DqnConfig(), build=DqnConfig)},
    "eval": {**_SIM, "variants": Key([{"name": Key(VARIANTS), **_CHECKPOINTS}]),
             "eval_episodes": Key(int, STAGE, ">= 1"), "plot_episodes": Key(int, 3, ">= 1"),
             "ntm_mode": Key(NTM_MODES, "sumsq"), "qnet": _FILE,
             "agent_variant": Key(VARIANTS), "policy_episodes": Key(int, 100, ">= 1")},
    "ntm": {"real": _FILE, "sim": _FILE, "ntm_mode": Key(NTM_MODES, "sumsq")},
}


def _canonical_sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def _prepared(cfg: dict, seed: int, resplit: bool = False):
    """The stage's inputs so far, {"data": path}, and (train, val, stats),
    derived from the raw cohort deterministically. A stage that splits the
    training half again for its own validation passes `resplit`."""
    if "data" not in cfg:
        raise ConfigError("missing config key: data")
    inputs = {"data": Path(cfg["data"])}
    cohort = load_cohort(inputs["data"])
    if cohort.n_episodes < 2:
        raise ConfigError(f"data: {inputs['data']} holds {cohort.n_episodes} "
                          "episode(s), and a train/validation split needs 2")
    train, val, stats = prepare_cohorts(cohort, fraction=cfg["split_fraction"],
                                        seed=seed)
    if resplit and train.n_episodes < 2:
        raise ConfigError(f"data: the training split of {inputs['data']} holds "
                          "1 episode, and this stage splits it again, which needs 2")
    return inputs, train, val, stats


def _schedule(cfg: dict, seed: int) -> TrainSchedule:
    """A training section's epochs; an absent patience never stops early."""
    return TrainSchedule(max_epochs=cfg["epochs"],
                         patience=cfg.get("patience", cfg["epochs"]),
                         batch_size=cfg["batch_size"], seed=seed)


def _take(stage: str, cfg: dict, key: str, pool: int) -> int:
    """How many episodes of a pool of `pool` to use: cfg[key], or all."""
    n = cfg.get(key, pool)
    if n > pool:
        raise ConfigError(f"{stage}: {key} is {n}, but the pool holds {pool} episodes")
    return n


@dataclass
class StageResult:
    metrics: dict
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


# ------------------------------------------------------------------ stages

def _stage_synth_data(cfg: dict, out: Path, seed: int) -> StageResult:
    try:
        spec = SyntheticDynamicsSpec.default(seed=seed, **cfg["generator"])
    except ValueError as exc:
        raise ConfigError(f"synth-data: generator: {exc}")
    cohort = generate_synthetic_cohort(spec, cfg["episodes"])
    path = out / "cohort.csv"
    export_cohort(cohort, path)
    lengths = [e.length for e in cohort.episodes]
    deaths = sum(e.outcome == Outcome.DEATH for e in cohort.episodes)
    metrics = {"n_episodes": cohort.n_episodes,
               "n_steps": int(sum(lengths)),
               "mean_length": float(np.mean(lengths)),
               "death_rate": deaths / cohort.n_episodes}
    return StageResult(metrics, outputs={"cohort.csv": path})


def _stage_train_vae(cfg: dict, out: Path, seed: int) -> StageResult:
    kind = cfg["kind"]
    if kind == "ae" and "beta" in cfg:
        raise ConfigError("train-vae: beta is for kind 'vae'; an 'ae' has no KL term")
    schedule = _schedule(cfg, seed)
    inputs, train, val, stats = _prepared(cfg, seed)
    if kind == "vae":
        model, history = train_vae(train.all_states(), val.all_states(), schedule,
                                   cfg["learning_rate"], cfg.get("beta", 0.0))
    else:
        model, history = train_ae(train.all_states(), val.all_states(), schedule,
                                  cfg["learning_rate"])
    model_path = out / f"{kind}.json"
    model.save(model_path)
    stats_path = out / "stats.json"
    write_stats_json(stats, train.feature_names, stats_path)
    recon = model.reconstruct(val.all_states())
    mse = float(np.mean((recon - val.all_states()) ** 2))
    metrics = {"best_epoch": history.best_epoch,
               "n_epochs": history.n_epochs,
               "val_loss": history.best_val_loss,
               "heldout_recon_mse": mse}
    return StageResult(metrics, inputs,
                       outputs={f"{kind}.json": model_path,
                                "stats.json": stats_path})


def _load_optional_encoder(cfg: dict, inputs: dict):
    """(encoder, sha256 of the bytes its load read), or (None, None)."""
    if "encoder" not in cfg:
        return None, None
    inputs["encoder"] = Path(cfg["encoder"])
    return load_encoder(inputs["encoder"]), _sha256_as_read(inputs["encoder"])


def _stage_train_state(cfg: dict, out: Path, seed: int) -> StageResult:
    variant = cfg["variant"]
    model_cfg = StateModelConfig(variant=variant, window=cfg["window"],
                                 rnn_hidden=cfg["rnn_hidden"],
                                 n_mixtures=cfg["n_mixtures"])
    try:
        model_cfg.check_encoder("encoder" in cfg)
    except ValueError as exc:
        raise ConfigError(f"train-state: {exc}")
    schedule = _schedule(cfg, seed)
    inputs, train, _, _ = _prepared(cfg, seed, resplit=True)
    encoder, enc_sha = _load_optional_encoder(cfg, inputs)
    model, history = train_state_model(model_cfg, train, schedule, encoder=encoder,
                                       val_fraction=cfg["val_fraction"],
                                       learning_rate=cfg["learning_rate"])
    path = out / f"state_{variant}.json"
    model.save(path, encoder_sha256=enc_sha)
    metrics = {"best_epoch": history.best_epoch,
               "n_epochs": history.n_epochs,
               "val_loss": history.best_val_loss}
    return StageResult(metrics, inputs, {f"state_{variant}.json": path})


def _stage_train_heads(cfg: dict, out: Path, seed: int) -> StageResult:
    schedule = _schedule(cfg, seed)
    inputs, train, _, _ = _prepared(cfg, seed, resplit=True)
    encoder, enc_sha = _load_optional_encoder(cfg, inputs)
    result = train_heads(train, schedule, encoder=encoder,
                         step_norm=cfg["step_norm"],
                         val_fraction=cfg["val_fraction"],
                         learning_rate=cfg["learning_rate"])
    suffix = cfg["suffix"]
    term_path = out / f"termination{suffix}.json"
    outcome_path = out / f"outcome{suffix}.json"
    result.termination.save(term_path, encoder_sha256=enc_sha)
    result.outcome.save(outcome_path, encoder_sha256=enc_sha)
    metrics = {"termination_val_loss": result.termination_history.best_val_loss,
               "outcome_val_loss": result.outcome_history.best_val_loss,
               "terminal_fraction": result.terminal_fraction,
               "death_fraction": result.death_fraction}
    return StageResult(metrics, inputs,
                       {f"termination{suffix}.json": term_path,
                        f"outcome{suffix}.json": outcome_path})


def _sim_config(cfg: dict, seed: int, where: str = "checkpoints") -> SimConfig:
    """The simulator cfg describes; `where` names its checkpoints in errors."""
    try:
        return SimConfig(variant=cfg["variant"], checkpoints=cfg.get("checkpoints", {}),
                         temperature=cfg["temperature"], reward=cfg["reward"],
                         max_steps=cfg["max_steps"],
                         termination_mode=cfg["termination_mode"], seed=seed)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def _checkpoint(paths: dict, key: str, load, *args):
    """The `key` checkpoint of `paths`, read by `load`; a file that `load`
    refuses, one of another kind for instance, is a config error naming the
    key."""
    try:
        return load(paths[key], *args)
    except ValueError as exc:
        raise ConfigError(f"{key} checkpoint {paths[key]}: {exc}")


def _build_env(sim: SimConfig, pool: np.ndarray,
               stats: NormalizationStats) -> PatientEnv:
    state_model = _checkpoint(sim.checkpoints, "state", StateModel.load)
    if state_model.config.variant != sim.variant:
        raise ConfigError(
            f"state checkpoint {sim.checkpoints['state']} is a "
            f"{state_model.config.variant!r} model, but the simulator is "
            f"configured as {sim.variant!r}")
    encoder = None
    if "encoder" in sim.checkpoints:
        encoder = _checkpoint(sim.checkpoints, "encoder", load_encoder)
    heads = {kind: _checkpoint(sim.checkpoints, kind, BinaryHead.load, kind)
             for kind in ("termination", "outcome")}
    if encoder is not None:
        # checked after the loads, against the digest of the bytes the
        # encoder's load read, for each model that records its encoder
        digest = _sha256_as_read(sim.checkpoints["encoder"])
        for key, model in (("state", state_model), *heads.items()):
            if model.encoder_sha256 not in (None, digest):
                raise ConfigError(
                    f"encoder checkpoint {sim.checkpoints['encoder']} is not the "
                    f"one {key} checkpoint {sim.checkpoints[key]} was trained "
                    f"with (sha256 {model.encoder_sha256})")
    for kind, head in heads.items():
        if head.state_dim != state_model.state_dim:
            raise ConfigError(
                f"{kind} checkpoint {sim.checkpoints[kind]} takes {head.state_dim} "
                f"state features, but the state model gives {state_model.state_dim}")
    return PatientEnv(state_model, heads["termination"], heads["outcome"], pool,
                      reward_spec=sim.reward, encoder=encoder, stats=stats,
                      temperature=sim.temperature, max_steps=sim.max_steps,
                      termination_mode=sim.termination_mode, seed=sim.seed)


def _pool(split: str, train: Cohort, val: Cohort) -> tuple[Cohort, np.ndarray]:
    source = (Cohort(train.episodes + val.episodes, train.feature_names,
                     train.normalization)
              if split == "all" else {"train": train, "val": val}[split])
    return source, source.initial_states()


def _trajectory_lines(variant: str, trajectories, cells) -> typing.Iterator[str]:
    """The trajectories.csv lines of one variant's trajectories, one per
    state, each episode's step-0 initial row first; cells[i] is
    `float_cells(trajectories[i].states)`, made once by the caller."""
    for ep, (traj, states) in enumerate(zip(trajectories, cells, strict=True)):
        width = traj.initial.shape[0]
        yield from csv_lines((variant, ep), (
            map(str, range(traj.n_steps + 1)),
            map(str, np.concatenate(([-1], traj.actions)).tolist()),
            float_cells(np.concatenate(([0.0], traj.rewards))),
            map(str, np.concatenate(([0], traj.dones)).tolist()),
            *(states[f::width] for f in range(width))))


def _open_trajectories_csv(path: Path, feature_names):
    """trajectories.csv, open for `_trajectory_lines` (see `csv_file`)."""
    return csv_file(path, ["variant", "episode", "step", "action", "reward",
                           "done", *feature_names])


def _stage_rollout(cfg: dict, out: Path, seed: int) -> StageResult:
    sim = _sim_config(cfg, seed)
    inputs, train, val, stats = _prepared(cfg, seed)
    inputs.update((k, Path(v)) for k, v in sim.checkpoints.items())
    source, pool = _pool(cfg["pool_split"], train, val)
    physician = cfg["policy"] == "physician"
    n = (_take("rollout", cfg, "episodes", source.n_episodes) if physician
         else cfg.get("episodes", 100))
    env = _build_env(sim, pool, stats)
    if physician:
        trajectories = [replay_physician(env, e) for e in source.episodes[:n]]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        uniform = lambda obs, t: int(rng.integers(env.action_count))
        trajectories = [rollout(env, uniform) for _ in range(n)]

    episodes, completed, returns, lengths = [], [], [], []
    for i, traj in enumerate(trajectories):
        sim_ep = traj.episode(f"sim-{len(episodes):05d}")
        if sim_ep is not None:
            episodes.append(sim_ep)
            completed.append(i)
        returns.append(traj.ret)
        lengths.append(traj.n_steps)

    traj_path = out / "trajectories.csv"
    cells = [float_cells(traj.states) for traj in trajectories]
    with _open_trajectories_csv(traj_path, train.feature_names) as write:
        write(_trajectory_lines(sim.variant, trajectories, cells))
    outputs = {"trajectories.csv": traj_path}
    if episodes:
        sim_cohort = Cohort(tuple(episodes), train.feature_names)
        sim_path = out / "sim_cohort.csv"
        # a completed episode's rows are its trajectory's states but the
        # last, so their cells are the ones trajectories.csv was written from
        export_cohort(sim_cohort, sim_path, [cells[i] for i in completed])
        outputs["sim_cohort.csv"] = sim_path
    deaths = sum(e.outcome == Outcome.DEATH for e in episodes)
    metrics = {"n_rollouts": len(trajectories),
               "n_completed": len(episodes),
               "mean_return": float(np.mean(returns)),
               "mean_length": float(np.mean(lengths)),
               "death_rate": deaths / len(episodes) if episodes else 0.0}
    return StageResult(metrics, inputs, outputs)


def _stage_train_agent(cfg: dict, out: Path, seed: int) -> StageResult:
    sim = _sim_config(cfg, seed)
    dqn = replace(cfg["dqn"], seed=seed)
    inputs, train, val, stats = _prepared(cfg, seed)
    inputs.update((k, Path(v)) for k, v in sim.checkpoints.items())
    _, pool = _pool(cfg["pool_split"], train, val)
    env = _build_env(sim, pool, stats)
    result = train_agent(env, dqn)
    qnet_path = out / "qnet.json"
    result.qnet.save(qnet_path)
    curve_path = out / "reward_curve.csv"
    write_reward_curve(result.episodes, curve_path)
    returns = result.returns
    tail = returns[-50:] if returns.size else np.zeros(1)
    metrics = {"n_episodes": len(result.episodes),
               "mean_return": float(returns.mean()) if returns.size else 0.0,
               "mean_return_last50": float(tail.mean()),
               "final_epsilon": dqn.epsilon_at(dqn.total_steps)}
    return StageResult(metrics, inputs, {"qnet.json": qnet_path,
                                         "reward_curve.csv": curve_path})


def _eval_sims(cfg: dict, seed: int) -> list[SimConfig]:
    """One simulator per `variants` entry, which names its variant and
    lists its checkpoints."""
    variants = cfg.get("variants")
    if not variants:
        raise ConfigError("eval needs a non-empty 'variants' list")
    names = [entry.get("name") for entry in variants]
    if None in names or len(set(names)) < len(names):
        raise ConfigError(f"each variants entry needs a name of its own, got {names}")
    return [_sim_config({**cfg, "variant": entry["name"],
                         "checkpoints": {k: v for k, v in entry.items()
                                         if k != "name"}}, seed, f"variants[{i}]")
            for i, entry in enumerate(variants)]


def _tf_series(report, episodes: int, recorded: dict[str, list[str]]):
    """First-N-episode (targets, predictions) pairs for plot export, each
    series its `float_cells`, made once.

    `recorded` maps a subject to the `float_cells` of its recorded states,
    or is empty; a model's targets are a subject's recorded states after
    the first when it takes no encoder, and then their text is taken from
    `recorded`, not made again."""
    subjects = np.array(report.subjects)
    width = report.targets.shape[1]
    targets, predictions = [], []
    for subj in list(dict.fromkeys(report.subjects))[:episodes]:
        rows = subjects == subj
        cells = recorded.get(subj)
        targets.append(float_cells(report.targets[rows]) if cells is None
                       else cells[width:])
        predictions.append(float_cells(report.predictions[rows]))
    return targets, predictions


def _stage_eval(cfg: dict, out: Path, seed: int) -> StageResult:
    sims = _eval_sims(cfg, seed)
    agent_variant = cfg.get("agent_variant", sims[0].variant)
    if agent_variant not in {sim.variant for sim in sims}:
        raise ConfigError(f"eval: agent_variant {agent_variant!r} not in variants")
    inputs, train, val, stats = _prepared(cfg, seed)
    n_eval = _take("eval", cfg, "eval_episodes", val.n_episodes)
    eval_cohort = Cohort(val.episodes[:n_eval], val.feature_names,
                         val.normalization)
    plot_episodes = cfg["plot_episodes"]
    net = None
    if "qnet" in cfg:
        inputs["qnet"] = Path(cfg["qnet"])
        net = _checkpoint(inputs, "qnet", QNetwork.load)
        if (net.obs_dim, net.n_actions) != (N_FEATURES, ACTION_COUNT):
            raise ConfigError(
                f"qnet checkpoint {inputs['qnet']} takes {net.obs_dim} features "
                f"and scores {net.n_actions} actions; eval needs {N_FEATURES} "
                f"and {ACTION_COUNT}")
    seeds = iter(np.random.SeedSequence(seed).spawn(len(sims)))

    metrics: dict = {}
    outputs: dict = {}
    ntm_table: list[list] = []
    # each plot episode's recorded states are formatted once, for every
    # variant's closed_loop_<name>.csv and a raw-state model's
    # teacher_forced_<name>.csv targets
    real_cells = [float_cells(e.states)
                  for e in eval_cohort.episodes[:plot_episodes]]
    recorded = {e.subject_id: cells
                for e, cells in zip(eval_cohort.episodes, real_cells)}
    # each variant's models are loaded once; closed-loop replay runs on the
    # built env and the policy rollouts on env.fresh(), so each pass's
    # generator begins at sim.seed
    envs: dict[str, PatientEnv] = {}
    traj_path = out / "trajectories.csv"
    with _open_trajectories_csv(traj_path,
                                train.feature_names) as write_trajectories:
        for sim in sims:
            name = sim.variant
            inputs.update({f"{name}.{k}": Path(v)
                           for k, v in sim.checkpoints.items()})
            env = _build_env(sim, eval_cohort.initial_states(), stats)
            envs[name] = env

            # teacher-forced sweep: true history in, one-step prediction out
            sample_rng = np.random.default_rng(next(seeds))
            report = teacher_forced_eval(env.state_model, eval_cohort,
                                         encoder=env.encoder,
                                         sample_rng=sample_rng)
            metrics[f"tf_mse_{name}"] = report.mse
            if report.sample_mse is not None:
                metrics[f"tf_sample_mse_{name}"] = report.sample_mse
            tf_path = out / f"teacher_forced_{name}.csv"
            real_rows, sim_rows = _tf_series(
                report, plot_episodes, recorded if env.encoder is None else {})
            names = (train.feature_names if env.encoder is None
                     else tuple(f"z_{i}" for i in range(report.targets.shape[1])))
            write_series_csv(tf_path, name, names, real_rows, sim_rows)
            outputs[f"teacher_forced_{name}.csv"] = tf_path

            # closed-loop replay: model consumes only its own states; the
            # same replays give the NTM, closed_loop_<name>.csv and
            # trajectories.csv, both files from one formatting of each
            # replay's states
            replays = closed_loop_trajectories(env, eval_cohort)
            sim_trajs = [r.states for r in replays]
            sim_cells = [float_cells(states) for states in sim_trajs]
            write_trajectories(_trajectory_lines(name, replays, sim_cells))
            real_trajs = [e.states for e in eval_cohort.episodes]
            real_m, sim_m = trajectory_matrices(real_trajs, sim_trajs)
            ntm = normalized_trajectory_mean(real_m, sim_m, mode=cfg["ntm_mode"])
            metrics[f"ntm_gap_{name}"] = ntm.mean_gap
            ntm_table += ([name, *row]
                          for row in ntm_rows(ntm, train.feature_names))
            cl_path = out / f"closed_loop_{name}.csv"
            write_series_csv(cl_path, name, train.feature_names, real_cells,
                             sim_cells[:plot_episodes])
            outputs[f"closed_loop_{name}.csv"] = cl_path
            # the next variant's sweep runs without this one's cells,
            # replays and sweep
            del sim_cells, replays, sim_trajs, real_m, sim_m, report
    outputs["trajectories.csv"] = traj_path

    ntm_path = out / "ntm.csv"
    write_table(ntm_path, ["variant", *NTM_HEADER], ntm_table)
    outputs["ntm.csv"] = ntm_path

    if net is not None:
        env = envs[agent_variant].fresh()
        rollouts = policy_histogram(net, env, cfg["policy_episodes"])
        comparison = compare_policy_distributions(eval_cohort, rollouts,
                                                  reward_spec=env.reward_spec,
                                                  stats=stats)
        hist_path = out / "histograms.csv"
        write_histograms_csv(comparison, hist_path)
        outputs["histograms.csv"] = hist_path
        metrics["policy_mean_return"] = float(rollouts.returns.mean())
        metrics["policy_mean_length"] = float(rollouts.lengths.mean())
        metrics["policy_collapse"] = int(comparison.collapse_sim)
    return StageResult(metrics, inputs, outputs)


def _stage_ntm(cfg: dict, out: Path, seed: int) -> StageResult:
    inputs = {k: Path(cfg[k]) for k in ("real", "sim") if k in cfg}
    if len(inputs) < 2:
        raise ConfigError("ntm needs both 'real' and 'sim' cohorts")
    real, sim = load_cohort(inputs["real"]), load_cohort(inputs["sim"])
    if real.feature_names != sim.feature_names:
        raise ConfigError("real and sim cohorts disagree on features")
    real_m, sim_m = trajectory_matrices([e.states for e in real.episodes],
                                        [e.states for e in sim.episodes])
    report = normalized_trajectory_mean(real_m, sim_m, mode=cfg["ntm_mode"])
    path = out / "ntm.csv"
    write_table(path, NTM_HEADER, ntm_rows(report, real.feature_names))
    metrics = {"mean_gap": report.mean_gap,
               "n_degenerate": int(report.degenerate.sum()),
               "horizon": real_m.horizon}
    return StageResult(metrics, inputs, {"ntm.csv": path})


_STAGE_FUNCS = {"synth-data": _stage_synth_data,
                "train-vae": _stage_train_vae,
                "train-state": _stage_train_state,
                "train-heads": _stage_train_heads,
                "rollout": _stage_rollout,
                "train-agent": _stage_train_agent,
                "eval": _stage_eval,
                "ntm": _stage_ntm}


# -------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepsim",
        description="Patient-trajectory world model: train, simulate, evaluate.")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in _STAGE_FUNCS:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=json.loads, help="override the config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       dest="overrides",
                       help="override a stage config key (JSON value)")
    return parser


def run_stage(stage: str, config: dict, out: Path, seed: int,
              overrides: list[str] | None = None) -> dict:
    """Run one stage; returns its metrics. Raises ConfigError on bad input."""
    raw = _section(config, stage.replace("-", "_"), overrides)
    rows = _SCHEMA[stage]
    cfg = {**{k: row.default for k, row in rows.items() if row.default is not STAGE},
           **_typed(stage, raw, rows)}
    out.mkdir(parents=True, exist_ok=True)
    with _recording_digests():
        result = _STAGE_FUNCS[stage](cfg, out, seed)
        inputs = {k: _sha256_as_read(p) for k, p in sorted(result.inputs.items())}
    bad = [k for k, v in result.metrics.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-numeric or non-finite metrics: {bad}")
    metrics_path = out / "metrics.json"
    _write_json(metrics_path, result.metrics)
    manifest = {"command": stage,
                "seed": seed,
                "config_sha256": _canonical_sha256(raw),
                "inputs": inputs,
                "outputs": {k: file_sha256(p)
                            for k, p in sorted(result.outputs.items())},
                "metrics": result.metrics}
    manifest["outputs"]["metrics.json"] = file_sha256(metrics_path)
    _write_json(out / "manifest.json", manifest)
    return result.metrics


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config)
        seed = _value(args.stage, "seed", Key(int, 0, ">= 0"),
                      config.get("seed", 0) if args.seed is None else args.seed)
        metrics = run_stage(args.stage, config, Path(args.out), seed,
                            args.overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for key in sorted(metrics):
        print(f"{key}: {metrics[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
