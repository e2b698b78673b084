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
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agent import (DqnConfig, QNetwork, policy_histogram, train_agent,
                    write_reward_curve)
from .checkpoint import file_sha256, float_cells, write_table
from .data import (Cohort, NormalizationStats, Outcome, PatientEpisode,
                   export_cohort, generate_synthetic_cohort, load_cohort,
                   prepare_cohorts, SyntheticDynamicsSpec, write_stats_json)
from .dynamics import (DEFAULT_WINDOW, StateModel, StateModelConfig, VARIANTS,
                       train_state_model)
from .env import (PatientEnv, ReplayTrajectory, RewardSpec, SimConfig,
                  replay_physician, rollout)
from .evaluation import (closed_loop_trajectories, compare_policy_distributions,
                         normalized_trajectory_mean, ntm_rows, NTM_HEADER,
                         teacher_forced_eval, trajectory_matrices,
                         write_histograms_csv, write_ntm_csv, write_series_csv)
from .heads import BinaryHead, train_heads
from .nn import TrainSchedule
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
    except json.JSONDecodeError as exc:
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
        except json.JSONDecodeError:
            merged[key.strip()] = raw
    return merged


def _require_file(value, what: str) -> Path:
    if not value:
        raise ConfigError(f"missing config key: {what}")
    p = Path(value)
    if not p.is_file():
        raise ConfigError(f"{what} does not exist: {p}")
    return p


def _count(cfg: dict, key: str, default: int, pool: int | None = None) -> int:
    """cfg[key], which must be at least 1, and at most `pool` (the number of
    episodes to draw from) when given; default when the key is absent."""
    if key not in cfg:
        return default
    n = int(cfg[key])
    if n < 1:
        raise ConfigError(f"{key} must be >= 1, got {n}")
    if pool is not None and n > pool:
        raise ConfigError(f"{key} is {n}, but the pool holds {pool} episodes")
    return n


def _float(cfg: dict, key: str, default: float, rule: str, ok) -> float:
    """cfg[key] as a float, default when the key is absent; a value for
    which ok(value) is false is a config error that states `rule`."""
    value = float(cfg.get(key, default))
    if not ok(value):
        raise ConfigError(f"{key} must be {rule}, got {value}")
    return value


def _fraction(cfg: dict, key: str, default: float) -> float:
    return _float(cfg, key, default, "in (0, 1)", lambda v: 0.0 < v < 1.0)


def _canonical_sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def _prepared(cfg: dict, seed: int):
    """Load the raw cohort and derive (train, val, stats) deterministically."""
    data_path = _require_file(cfg.get("data"), "data")
    fraction = _fraction(cfg, "split_fraction", 0.8)
    train, val, stats = prepare_cohorts(load_cohort(data_path),
                                        fraction=fraction, seed=seed)
    return data_path, train, val, stats


def _schedule(cfg: dict, seed: int) -> tuple[TrainSchedule, float]:
    """Epoch schedule and learning rate from a training section; an absent
    patience never stops early, and out-of-range values (patience 0
    included) are config errors."""
    epochs = int(cfg.get("epochs", 20))
    patience = cfg.get("patience")
    try:
        schedule = TrainSchedule(max_epochs=epochs,
                                 patience=epochs if patience is None else int(patience),
                                 batch_size=int(cfg.get("batch_size", 64)),
                                 seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return schedule, _float(cfg, "learning_rate", 1e-3, "> 0", lambda v: v > 0)


@dataclass
class StageResult:
    metrics: dict
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


# ------------------------------------------------------------------ stages

def _stage_synth_data(cfg: dict, out: Path, seed: int) -> StageResult:
    episodes = _count(cfg, "episodes", 200)
    gen = dict(cfg.get("generator", {}))
    if not isinstance(gen, dict):
        raise ConfigError("generator must be a JSON object of keyword overrides")
    try:
        spec = SyntheticDynamicsSpec.default(seed=seed, **gen)
    except TypeError as exc:
        raise ConfigError(f"bad generator override: {exc}")
    cohort = generate_synthetic_cohort(spec, episodes)
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
    kind = cfg.get("kind", "vae")
    if kind not in ("vae", "ae"):
        raise ConfigError(f"kind must be 'vae' or 'ae', got {kind!r}")
    if kind == "ae" and "beta" in cfg:
        raise ConfigError("beta applies to kind 'vae' only; an 'ae' has no KL term")
    beta = _float(cfg, "beta", 0.0, ">= 0", lambda v: v >= 0)
    schedule, learning_rate = _schedule(cfg, seed)
    data_path, train, val, stats = _prepared(cfg, seed)
    if kind == "vae":
        model, history = train_vae(train.all_states(), val.all_states(), schedule,
                                   learning_rate, beta)
    else:
        model, history = train_ae(train.all_states(), val.all_states(), schedule,
                                  learning_rate)
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
    return StageResult(metrics, inputs={"data": data_path},
                       outputs={f"{kind}.json": model_path,
                                "stats.json": stats_path})


def _load_optional_encoder(cfg: dict, inputs: dict):
    enc_path = cfg.get("encoder")
    if enc_path is None:
        return None
    p = _require_file(enc_path, "encoder")
    inputs["encoder"] = p
    return load_encoder(p)


def _stage_train_state(cfg: dict, out: Path, seed: int) -> StageResult:
    variant = cfg.get("variant", "vae_mdn_rnn")
    try:
        model_cfg = StateModelConfig(variant=variant,
                                     window=int(cfg.get("window", DEFAULT_WINDOW)),
                                     rnn_hidden=int(cfg.get("rnn_hidden", 64)),
                                     n_mixtures=int(cfg.get("n_mixtures", 5)))
    except ValueError as exc:
        raise ConfigError(str(exc))
    has_encoder = cfg.get("encoder") is not None
    if model_cfg.uses_encoder and not has_encoder:
        raise ConfigError(f"variant {variant!r} needs an encoder checkpoint")
    if not model_cfg.uses_encoder and has_encoder:
        raise ConfigError(f"variant {variant!r} does not take an encoder")
    schedule, learning_rate = _schedule(cfg, seed)
    val_fraction = _fraction(cfg, "val_fraction", 0.1)
    data_path, train, _, _ = _prepared(cfg, seed)
    inputs = {"data": data_path}
    encoder = _load_optional_encoder(cfg, inputs)
    model, history = train_state_model(model_cfg, train, schedule, encoder=encoder,
                                       val_fraction=val_fraction,
                                       learning_rate=learning_rate)
    path = out / f"state_{variant}.json"
    enc_sha = file_sha256(inputs["encoder"]) if "encoder" in inputs else None
    model.save(path, encoder_sha256=enc_sha)
    metrics = {"best_epoch": history.best_epoch,
               "n_epochs": history.n_epochs,
               "val_loss": history.best_val_loss}
    return StageResult(metrics, inputs, {f"state_{variant}.json": path})


def _stage_train_heads(cfg: dict, out: Path, seed: int) -> StageResult:
    schedule, learning_rate = _schedule(cfg, seed)
    step_norm = _float(cfg, "step_norm", 50.0, "> 0", lambda v: v > 0)
    val_fraction = _fraction(cfg, "val_fraction", 0.1)
    data_path, train, _, _ = _prepared(cfg, seed)
    inputs = {"data": data_path}
    encoder = _load_optional_encoder(cfg, inputs)
    result = train_heads(train, schedule, encoder=encoder, step_norm=step_norm,
                         val_fraction=val_fraction, learning_rate=learning_rate)
    suffix = cfg.get("suffix", "")
    term_path = out / f"termination{suffix}.json"
    outcome_path = out / f"outcome{suffix}.json"
    result.termination.save(term_path)
    result.outcome.save(outcome_path)
    metrics = {"termination_val_loss": result.termination_history.best_val_loss,
               "outcome_val_loss": result.outcome_history.best_val_loss,
               "terminal_fraction": result.report.terminal_fraction,
               "death_fraction": result.report.death_fraction}
    return StageResult(metrics, inputs,
                       {f"termination{suffix}.json": term_path,
                        f"outcome{suffix}.json": outcome_path})


def _sim_config(cfg: dict, seed: int) -> SimConfig:
    checkpoints = cfg.get("checkpoints")
    if not isinstance(checkpoints, dict) or not checkpoints:
        raise ConfigError("missing config key: checkpoints")
    for name, path in checkpoints.items():
        _require_file(path, f"checkpoints.{name}")
    reward = cfg.get("reward", {})
    if not isinstance(reward, dict):
        raise ConfigError(f"reward must be a JSON object, got {reward!r}")
    try:
        return SimConfig(variant=cfg.get("variant", "vae_mdn_rnn"),
                         checkpoints=dict(checkpoints),
                         temperature=float(cfg.get("temperature", 1.0)),
                         reward=RewardSpec(**reward),
                         max_steps=int(cfg.get("max_steps", 50)),
                         termination_mode=cfg.get("termination_mode",
                                                  "bernoulli"),
                         seed=seed)
    except (TypeError, ValueError) as exc:
        # an unknown reward key is a TypeError that names it
        raise ConfigError(str(exc))


def _build_env(sim: SimConfig, pool: np.ndarray,
               stats: NormalizationStats) -> PatientEnv:
    state_model = StateModel.load(sim.checkpoints["state"])
    if state_model.config.variant != sim.variant:
        raise ConfigError(
            f"state checkpoint {sim.checkpoints['state']} holds a "
            f"{state_model.config.variant!r} model, but the simulator is "
            f"configured as {sim.variant!r}")
    recorded = state_model.encoder_sha256
    if (recorded is not None and "encoder" in sim.checkpoints
            and file_sha256(sim.checkpoints["encoder"]) != recorded):
        raise ConfigError(
            f"encoder checkpoint {sim.checkpoints['encoder']} is not the one "
            f"state checkpoint {sim.checkpoints['state']} was trained with "
            f"(sha256 {recorded})")
    termination = BinaryHead.load(sim.checkpoints["termination"])
    outcome = BinaryHead.load(sim.checkpoints["outcome"])
    encoder = None
    if "encoder" in sim.checkpoints:
        encoder = load_encoder(sim.checkpoints["encoder"])
    return PatientEnv(state_model, termination, outcome, pool,
                      reward_spec=sim.reward, encoder=encoder, stats=stats,
                      temperature=sim.temperature, max_steps=sim.max_steps,
                      termination_mode=sim.termination_mode, seed=sim.seed)


def _pool(cfg: dict, train: Cohort, val: Cohort) -> tuple[Cohort, np.ndarray]:
    split = cfg.get("pool_split", "val")
    if split == "train":
        source = train
    elif split == "val":
        source = val
    elif split == "all":
        source = Cohort(train.episodes + val.episodes, train.feature_names,
                        train.normalization)
    else:
        raise ConfigError(f"pool_split must be train/val/all, got {split!r}")
    return source, source.initial_states()


def _write_trajectories_csv(path: Path, feature_names, blocks) -> None:
    """blocks: iterable of (variant, trajectories) pairs; one row per state,
    each episode's step-0 initial row first."""
    def rows():
        for variant, trajectories in blocks:
            for ep, traj in enumerate(trajectories):
                width = traj.initial.shape[0]
                states = float_cells(np.vstack([traj.initial, traj.observations]))
                rewards = float_cells(np.concatenate(([0.0], traj.rewards)))
                actions = np.concatenate(([-1], traj.actions)).tolist()
                dones = np.concatenate(([0], traj.dones)).tolist()
                for t, row in enumerate(zip(actions, rewards, dones)):
                    yield [variant, ep, t, *row, *states[t * width:(t + 1) * width]]

    write_table(path, ["variant", "episode", "step", "action", "reward", "done",
                       *feature_names], rows())


def _rollout_episode(traj: ReplayTrajectory) -> PatientEpisode | None:
    """Recast a finished rollout as an episode row block for CSV export.

    Row t is the state in which action t was chosen; the observation after
    the terminal decision is not a row, matching the recorded-data layout.
    Returns None when the model never ended the episode (no outcome exists).
    """
    if traj.n_steps == 0 or not traj.dones[-1]:
        return None
    states = np.vstack([traj.initial, traj.observations[:-1]])
    outcome = Outcome(int(traj.infos[-1]["outcome"]))
    return PatientEpisode("sim", states, traj.actions, outcome)


def _stage_rollout(cfg: dict, out: Path, seed: int) -> StageResult:
    sim = _sim_config(cfg, seed)
    data_path, train, val, stats = _prepared(cfg, seed)
    inputs = {"data": data_path,
              **{k: Path(v) for k, v in sim.checkpoints.items()}}
    source, pool = _pool(cfg, train, val)
    policy = cfg.get("policy", "physician")
    if policy == "physician":
        picks = source.episodes[:_count(cfg, "episodes", source.n_episodes,
                                        pool=source.n_episodes)]
        if not picks:
            raise ConfigError("no episodes available to replay")
        env = _build_env(sim, pool, stats)
        trajectories = [replay_physician(env, episode) for episode in picks]
    elif policy == "random":
        n = _count(cfg, "episodes", 100)
        env = _build_env(sim, pool, stats)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        uniform = lambda obs, t: int(rng.integers(env.action_count))
        trajectories = [rollout(env, uniform) for _ in range(n)]
    else:
        raise ConfigError(f"policy must be physician or random, got {policy!r}")

    episodes, returns, lengths = [], [], []
    for traj in trajectories:
        sim_ep = _rollout_episode(traj)
        if sim_ep is not None:
            episodes.append(sim_ep)
        returns.append(float(traj.rewards.sum()))
        lengths.append(traj.n_steps)

    traj_path = out / "trajectories.csv"
    _write_trajectories_csv(traj_path, train.feature_names,
                            [(sim.variant, trajectories)])
    outputs = {"trajectories.csv": traj_path}
    if episodes:
        relabeled = [PatientEpisode(f"sim-{i:05d}", e.states, e.actions,
                                    e.outcome) for i, e in enumerate(episodes)]
        sim_cohort = Cohort(tuple(relabeled), train.feature_names)
        sim_path = out / "sim_cohort.csv"
        export_cohort(sim_cohort, sim_path)
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
    dqn_keys = dict(cfg.get("dqn", {}))
    dqn_keys["seed"] = seed
    try:
        dqn = DqnConfig(**dqn_keys)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad dqn config: {exc}")
    data_path, train, val, stats = _prepared(cfg, seed)
    inputs = {"data": data_path,
              **{k: Path(v) for k, v in sim.checkpoints.items()}}
    cfg_pool = dict(cfg)
    cfg_pool.setdefault("pool_split", "train")
    _, pool = _pool(cfg_pool, train, val)
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
    if not isinstance(variants, list) or not variants:
        raise ConfigError("eval needs a non-empty 'variants' list")
    seen = set()
    for entry in variants:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError("each variants entry needs at least a 'name'")
        if entry["name"] not in VARIANTS:
            raise ConfigError(f"unknown variant {entry['name']!r}")
        if entry["name"] in seen:
            raise ConfigError(f"duplicate variant {entry['name']!r}")
        seen.add(entry["name"])
    return [_sim_config({**cfg, "variant": entry["name"],
                         "checkpoints": {k: v for k, v in entry.items()
                                         if k != "name"}}, seed)
            for entry in variants]


def _tf_series(report, episodes: int):
    """First-N-episode (targets, predictions) pairs for plot export."""
    subjects = np.array(report.subjects)
    rows = [subjects == subj for subj in dict.fromkeys(report.subjects)][:episodes]
    return ([report.targets[r] for r in rows],
            [report.predictions[r] for r in rows])


def _stage_eval(cfg: dict, out: Path, seed: int) -> StageResult:
    sims = _eval_sims(cfg, seed)
    data_path, train, val, stats = _prepared(cfg, seed)
    inputs = {"data": data_path}
    n_eval = _count(cfg, "eval_episodes", val.n_episodes, pool=val.n_episodes)
    eval_cohort = Cohort(val.episodes[:n_eval], val.feature_names,
                         val.normalization)
    if eval_cohort.n_episodes == 0:
        raise ConfigError("eval_episodes leaves no validation episodes")
    plot_episodes = _count(cfg, "plot_episodes", 3)
    ntm_mode = cfg.get("ntm_mode", "sumsq")
    net = None
    if cfg.get("qnet") is not None:
        agent_variant = cfg.get("agent_variant", sims[0].variant)
        if agent_variant not in {sim.variant for sim in sims}:
            raise ConfigError(f"agent_variant {agent_variant!r} not in variants")
        policy_episodes = _count(cfg, "policy_episodes", 100)
        inputs["qnet"] = _require_file(cfg["qnet"], "qnet")
        net = QNetwork.load(inputs["qnet"])
    seeds = iter(np.random.SeedSequence(seed).spawn(len(sims)))

    metrics: dict = {}
    outputs: dict = {}
    ntm_table: list[list] = []
    blocks = []
    # each variant's models are loaded once; every pass over them starts
    # from a fresh env (env.fresh()) so its generator begins at sim.seed
    envs: dict[str, PatientEnv] = {}
    for sim in sims:
        name = sim.variant
        inputs.update({f"{name}.{k}": Path(v) for k, v in sim.checkpoints.items()})
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
        real_rows, sim_rows = _tf_series(report, plot_episodes)
        names = (train.feature_names if env.encoder is None
                 else tuple(f"z_{i}" for i in range(report.targets.shape[1])))
        write_series_csv(tf_path, name, names, real_rows, sim_rows)
        outputs[f"teacher_forced_{name}.csv"] = tf_path

        # closed-loop replay: model consumes only its own states
        sim_trajs = closed_loop_trajectories(env, eval_cohort)
        real_trajs = [e.states for e in eval_cohort.episodes]
        real_m, sim_m = trajectory_matrices(real_trajs, sim_trajs)
        ntm = normalized_trajectory_mean(real_m, sim_m, mode=ntm_mode)
        metrics[f"ntm_gap_{name}"] = ntm.mean_gap
        ntm_table += ([name, *row] for row in ntm_rows(ntm, train.feature_names))
        cl_path = out / f"closed_loop_{name}.csv"
        write_series_csv(cl_path, name, train.feature_names,
                         real_trajs[:plot_episodes], sim_trajs[:plot_episodes])
        outputs[f"closed_loop_{name}.csv"] = cl_path

        env_replay = env.fresh()
        blocks.append((name, [replay_physician(env_replay, episode)
                              for episode in eval_cohort.episodes]))

    traj_path = out / "trajectories.csv"
    _write_trajectories_csv(traj_path, train.feature_names, blocks)
    outputs["trajectories.csv"] = traj_path

    ntm_path = out / "ntm.csv"
    write_table(ntm_path, ["variant", *NTM_HEADER], ntm_table)
    outputs["ntm.csv"] = ntm_path

    if net is not None:
        env = envs[agent_variant].fresh()
        rollouts = policy_histogram(net, env, policy_episodes)
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
    real_path = _require_file(cfg.get("real"), "real")
    sim_path = _require_file(cfg.get("sim"), "sim")
    real = load_cohort(real_path)
    sim = load_cohort(sim_path)
    if real.feature_names != sim.feature_names:
        raise ConfigError("real and sim cohorts disagree on features")
    real_m, sim_m = trajectory_matrices([e.states for e in real.episodes],
                                        [e.states for e in sim.episodes])
    report = normalized_trajectory_mean(real_m, sim_m,
                                        mode=cfg.get("ntm_mode", "sumsq"))
    path = out / "ntm.csv"
    write_ntm_csv(report, real.feature_names, path)
    metrics = {"mean_gap": report.mean_gap,
               "n_degenerate": int(report.degenerate.sum()),
               "horizon": real_m.horizon}
    return StageResult(metrics, {"real": real_path, "sim": sim_path},
                       {"ntm.csv": path})


# The section keys each stage reads; run_stage refuses any other key, so a
# misspelt key is an error instead of a silent default. eval sets each
# variant's `variant` and `checkpoints` itself, so it takes neither.
_SPLIT = {"data", "split_fraction"}
_SCHEDULE = {"epochs", "patience", "batch_size", "learning_rate"}
_SIM = {"temperature", "reward", "max_steps", "termination_mode"}
_STAGE_KEYS = {
    "synth-data": {"episodes", "generator"},
    "train-vae": _SPLIT | _SCHEDULE | {"kind", "beta"},
    "train-state": _SPLIT | _SCHEDULE | {"variant", "encoder", "window",
                                         "rnn_hidden", "n_mixtures",
                                         "val_fraction"},
    "train-heads": _SPLIT | _SCHEDULE | {"encoder", "step_norm", "val_fraction",
                                         "suffix"},
    "rollout": _SPLIT | _SIM | {"variant", "checkpoints", "pool_split",
                                "policy", "episodes"},
    "train-agent": _SPLIT | _SIM | {"variant", "checkpoints", "pool_split",
                                    "dqn"},
    "eval": _SPLIT | _SIM | {"variants", "eval_episodes", "plot_episodes",
                             "ntm_mode", "qnet", "agent_variant",
                             "policy_episodes"},
    "ntm": {"real", "sim", "ntm_mode"},
}

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
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       dest="overrides",
                       help="override a stage config key (JSON value)")
    return parser


def run_stage(stage: str, config: dict, out: Path, seed: int,
              overrides: list[str] | None = None) -> dict:
    """Run one stage; returns its metrics. Raises ConfigError on bad input."""
    cfg = _section(config, stage.replace("-", "_"), overrides)
    unknown = sorted(set(cfg) - _STAGE_KEYS[stage])
    if unknown:
        raise ConfigError(f"unknown config keys for {stage}: {', '.join(unknown)}")
    out.mkdir(parents=True, exist_ok=True)
    result = _STAGE_FUNCS[stage](cfg, out, seed)
    bad = [k for k, v in result.metrics.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-numeric or non-finite metrics: {bad}")
    metrics_path = out / "metrics.json"
    _write_json(metrics_path, result.metrics)
    manifest = {"command": stage,
                "seed": seed,
                "config_sha256": _canonical_sha256(cfg),
                "inputs": {k: file_sha256(p)
                           for k, p in sorted(result.inputs.items())},
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
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
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
