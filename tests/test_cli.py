"""CLI: exit codes, determinism, manifests, config overrides."""
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sepsim import cli
from sepsim.agent import QNetwork
from sepsim.cli import main
from sepsim.dynamics import MIN_TEMPERATURE
from sepsim.heads import BinaryHead


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_stage_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["deploy", "--out", "x"])
        assert err.value.code == 2

    def test_missing_config_file(self, tmp_path):
        code = main(["synth-data", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_config_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["synth-data", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_missing_data_for_training_stage(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_vae": {"data": "absent.csv"}}))
        code = main(["train-vae", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_override_syntax(self, tmp_path):
        code = main(["synth-data", "--out", str(tmp_path / "out"),
                     "--set", "episodes"])
        assert code == 2

    def test_console_script_entry(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sepsim.cli", "synth-data",
             "--out", str(tmp_path / "out"), "--seed", "1",
             "--set", "episodes=5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "n_episodes: 5" in proc.stdout


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(**blas):
    """This environment without the BLAS thread variables, but for those
    given, and with the package on the path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **blas}


@pytest.mark.parametrize("blas, seen", [({}, ["1", "1", "1"]),
                                        ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
                         ids=["unset", "user-set"])
def test_sepsim_command_pins_blas_threads_unless_set(tmp_path, blas, seen):
    """The console script's entry point, called as pip's wrapper calls it,
    sets the variables before numpy is first imported."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = re.search(r'^sepsim = "([\w.]+):(\w+)"$', pyproject.read_text(),
                      re.MULTILINE)
    module, function = entry.groups()
    argv = ["synth-data", "--out", str(tmp_path), "--set", "episodes=3"]
    code = (f"import os, sys; from {module} import {function}; "
            f"assert 'numpy' not in sys.modules; "
            f"assert {function}({argv!r}) == 0; "
            f"print(*(os.environ[v] for v in {BLAS_THREADS!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(**blas),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == seen


@pytest.mark.parametrize("package", ["sepsim", "sepsim.nn"])
def test_package_imports_no_submodule_and_exports_nothing(package):
    """The package root and sepsim.nn re-export nothing: a fresh import
    loads no other sepsim module and binds no public name."""
    code = (f"import importlib, json, sys; "
            f"pkg = importlib.import_module({package!r}); "
            f"print(json.dumps([sorted(m for m in sys.modules "
            f"if m.startswith('sepsim.') and m != {package!r}), "
            f"sorted(n for n in vars(pkg) if not n.startswith('_'))]))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_python_m_sepsim_writes_the_bytes_of_cli_main(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sepsim", "synth-data", "--out",
         str(tmp_path / "module"), "--set", "episodes=3"],
        env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["synth-data", "--out", str(tmp_path / "main"),
                 "--set", "episodes=3"]) == 0
    assert ((tmp_path / "module" / "cohort.csv").read_bytes()
            == (tmp_path / "main" / "cohort.csv").read_bytes())


class TestSynthData:
    def _run(self, out, seed=3, episodes=12):
        code = main(["synth-data", "--out", str(out), "--seed", str(seed),
                     "--set", f"episodes={episodes}"])
        assert code == 0
        return out

    def test_outputs_exist(self, tmp_path):
        out = self._run(tmp_path / "a")
        assert (out / "cohort.csv").is_file()
        assert (out / "metrics.json").is_file()
        assert (out / "manifest.json").is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = self._run(tmp_path / "a")
        b = self._run(tmp_path / "b")
        assert _sha(a / "cohort.csv") == _sha(b / "cohort.csv")
        assert _sha(a / "metrics.json") == _sha(b / "metrics.json")

    def test_seed_changes_data(self, tmp_path):
        a = self._run(tmp_path / "a", seed=3)
        b = self._run(tmp_path / "b", seed=4)
        assert _sha(a / "cohort.csv") != _sha(b / "cohort.csv")

    def test_manifest_hashes_match_files(self, tmp_path):
        out = self._run(tmp_path / "a")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth-data"
        assert manifest["seed"] == 3
        for name, digest in manifest["outputs"].items():
            assert digest == _sha(out / name), name

    def test_metrics_content(self, tmp_path):
        out = self._run(tmp_path / "a", episodes=12)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_episodes"] == 12
        assert 0.0 <= metrics["death_rate"] <= 1.0
        assert metrics["n_steps"] >= 12

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth_data": {"episodes": 50}}))
        out = tmp_path / "out"
        code = main(["synth-data", "--config", str(cfg), "--out", str(out),
                     "--seed", "0", "--set", "episodes=7"])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_episodes"] == 7


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["synth-data", "--out", str(out), "--seed", "5",
                 "--set", "episodes=24"]) == 0
    return out


class TestTrainingStages:
    def _cfg(self, tmp_path, data_dir, extra):
        cfg = tmp_path / "cfg.json"
        doc = {k: dict(v, data=str(data_dir / "cohort.csv"))
               for k, v in extra.items()}
        cfg.write_text(json.dumps(doc))
        return cfg

    def test_train_vae_stage(self, tmp_path, data_dir):
        cfg = self._cfg(tmp_path, data_dir,
                        {"train_vae": {"epochs": 2, "kind": "vae"}})
        out = tmp_path / "vae"
        assert main(["train-vae", "--config", str(cfg),
                     "--out", str(out), "--seed", "0"]) == 0
        assert (out / "vae.json").is_file()
        assert (out / "stats.json").is_file()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_epochs"] >= 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert "data" in manifest["inputs"]

    def test_beta_with_kind_ae_is_config_error(self, tmp_path, data_dir,
                                               monkeypatch, capsys):
        from sepsim import cli

        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train_ae", refuse)
        cfg = self._cfg(tmp_path, data_dir, {"train_vae": {"epochs": 1}})
        out = tmp_path / "ae"
        code = main(["train-vae", "--config", str(cfg), "--out", str(out),
                     "--seed", "0", "--set", "kind=ae", "--set", "beta=0.5"])
        assert code == 2
        assert "beta" in capsys.readouterr().err
        assert not (out / "ae.json").exists()

    def test_train_state_stage_plain_rnn(self, tmp_path, data_dir):
        cfg = self._cfg(tmp_path, data_dir,
                        {"train_state": {"epochs": 2, "variant": "rnn",
                                         "window": 3, "rnn_hidden": 8}})
        out = tmp_path / "state"
        assert main(["train-state", "--config", str(cfg),
                     "--out", str(out), "--seed", "0"]) == 0
        assert (out / "state_rnn.json").is_file()

    def test_train_state_latent_variant_needs_encoder(self, tmp_path, data_dir):
        cfg = self._cfg(tmp_path, data_dir,
                        {"train_state": {"epochs": 1, "variant": "vae_rnn"}})
        code = main(["train-state", "--config", str(cfg),
                     "--out", str(tmp_path / "state2"), "--seed", "0"])
        assert code == 2

    def test_train_heads_stage(self, tmp_path, data_dir):
        cfg = self._cfg(tmp_path, data_dir, {"train_heads": {"epochs": 2}})
        out = tmp_path / "heads"
        assert main(["train-heads", "--config", str(cfg),
                     "--out", str(out), "--seed", "0"]) == 0
        assert (out / "termination.json").is_file()
        assert (out / "outcome.json").is_file()
        metrics = json.loads((out / "metrics.json").read_text())
        assert "termination_val_loss" in metrics


@pytest.mark.parametrize("stage, section", [("train-vae", "train_vae"),
                                            ("train-state", "train_state"),
                                            ("train-heads", "train_heads")])
def test_patience_zero_is_config_error(tmp_path, data_dir, capsys, stage,
                                       section):
    cfg = tmp_path / "cfg.json"
    extra = {"variant": "rnn"} if stage == "train-state" else {}
    cfg.write_text(json.dumps({section: {"data": str(data_dir / "cohort.csv"),
                                         "epochs": 1, **extra}}))
    code = main([stage, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "0", "--set", "patience=0"])
    assert code == 2
    assert "patience must be >= 1" in capsys.readouterr().err


class TestNtmStage:
    def _run(self, tmp_path, real, sim):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ntm": {"real": str(real), "sim": str(sim)}}))
        out = tmp_path / "out"
        assert main(["ntm", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "ntm.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return header, rows, json.loads((out / "metrics.json").read_text())

    def test_two_cohorts(self, tmp_path, data_dir):
        from sepsim.data import load_cohort
        from sepsim.evaluation import NTM_HEADER

        other = tmp_path / "other"
        assert main(["synth-data", "--out", str(other), "--seed", "6",
                     "--set", "episodes=9"]) == 0
        real, sim = data_dir / "cohort.csv", other / "cohort.csv"
        header, rows, metrics = self._run(tmp_path, real, sim)
        cohorts = load_cohort(real), load_cohort(sim)
        assert header == list(NTM_HEADER)
        assert [row[0] for row in rows] == list(cohorts[0].feature_names)
        gaps = [float(row[3]) for row in rows if row[4] == "0"]
        assert 0 < len(gaps) and metrics["mean_gap"] == float(np.mean(gaps))
        assert metrics["n_degenerate"] == len(rows) - len(gaps)
        assert metrics["horizon"] == max(e.length for c in cohorts
                                         for e in c.episodes)

    def test_a_cohort_against_itself_has_no_gap(self, tmp_path, data_dir):
        cohort = data_dir / "cohort.csv"
        _, rows, metrics = self._run(tmp_path, cohort, cohort)
        assert [row[3] for row in rows] == ["0.0"] * len(rows)
        assert metrics["mean_gap"] == 0.0

    @pytest.mark.parametrize("key", ["real", "sim"])
    def test_a_cohort_of_no_episodes_exits_2_naming_its_key(
            self, tmp_path, data_dir, capsys, key):
        """A header-only cohort has no trajectory to average; the stage
        refuses it before the matrices are built."""
        cohort = data_dir / "cohort.csv"
        empty = tmp_path / "empty.csv"
        empty.write_text(cohort.read_text(encoding="utf-8").splitlines()[0] + "\n",
                         encoding="utf-8")
        section = {"real": str(cohort), "sim": str(cohort), key: str(empty)}
        code = _run_section(tmp_path, "ntm", section)
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"error: {key}: {empty} holds 0 episode(s), and the NTM needs 1" in err
        assert not (tmp_path / "out" / "metrics.json").exists()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory, data_dir):
    """Small raw-state checkpoints (rnn and mdn_rnn, heads, a Q-net)."""
    out = tmp_path_factory.mktemp("sim")
    cfg = out / "cfg.json"
    data = str(data_dir / "cohort.csv")
    small = {"data": data, "epochs": 1, "window": 3, "rnn_hidden": 8,
             "n_mixtures": 2}
    cfg.write_text(json.dumps({"train_state": small,
                               "train_heads": {"data": data, "epochs": 1}}))
    for variant in ("rnn", "mdn_rnn"):
        assert main(["train-state", "--config", str(cfg), "--out", str(out),
                     "--seed", "0", "--set", f"variant={variant}"]) == 0
    assert main(["train-heads", "--config", str(cfg), "--out", str(out),
                 "--seed", "0"]) == 0
    QNetwork(rng=np.random.default_rng(0)).save(out / "qnet.json")
    return out


def _checkpoints(sim_dir, state_variant):
    return {"state": str(sim_dir / f"state_{state_variant}.json"),
            "termination": str(sim_dir / "termination.json"),
            "outcome": str(sim_dir / "outcome.json")}


# ---- out-of-range values and bad reward sections are config errors

_REWARD_CASES = [({"reward": {"formulaton": "terminal_only"}}, "formulaton"),
                 ({"reward": "terminal_only"}, "reward")]


@pytest.mark.parametrize("stage, extra, key", [
    ("train-state", {"window": 0}, "window"),
    ("train-state", {"rnn_hidden": 0}, "rnn_hidden"),
    ("train-state", {"variant": "mdn_rnn", "n_mixtures": 0}, "n_mixtures"),
    ("train-state", {"learning_rate": 0}, "learning_rate"),
    ("train-state", {"val_fraction": 1.5}, "val_fraction"),
    ("train-heads", {"step_norm": 0}, "step_norm"),
    ("train-heads", {"val_fraction": 1.5}, "val_fraction"),
    ("train-vae", {"beta": -1}, "beta"),
    ("train-agent", {"dqn": {"total_steps": 10, "batch_size": 0}}, "batch_size"),
    *[(stage, {"split_fraction": 1.5}, "split_fraction")
      for stage in ("train-vae", "train-state", "train-heads", "rollout",
                    "train-agent", "eval")],
    *[(stage, extra, key) for stage in ("rollout", "train-agent", "eval")
      for extra, key in _REWARD_CASES],
])
def test_bad_value_is_config_error_before_any_file_is_read(
        tmp_path, data_dir, sim_dir, monkeypatch, capsys, stage, extra, key):
    from sepsim import checkpoint, cli

    def refuse(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(cli, "load_cohort", refuse)
    monkeypatch.setattr(checkpoint, "load_checkpoint", refuse)
    section = {"data": str(data_dir / "cohort.csv")}
    if stage in ("train-vae", "train-state", "train-heads"):
        section["epochs"] = 1
    if stage in ("train-state", "rollout", "train-agent"):
        section["variant"] = "rnn"
    if stage in ("rollout", "train-agent"):
        section["checkpoints"] = _checkpoints(sim_dir, "rnn")
    if stage == "train-agent":
        section["dqn"] = {"total_steps": 10}
    if stage == "eval":
        section["variants"] = [{"name": "rnn", **_checkpoints(sim_dir, "rnn")}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({stage.replace("-", "_"): {**section, **extra}}))
    code = main([stage, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "0"])
    assert code == 2
    assert key in capsys.readouterr().err


def _eval_cfg(tmp_path, data_dir, variants, **extra):
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"eval": {
        "data": str(data_dir / "cohort.csv"), "variants": variants,
        "eval_episodes": 3, "max_steps": 5,
        "termination_mode": "threshold", **extra}}))
    return cfg


class TestSimulatorAssembly:
    def test_eval_rejects_state_checkpoint_of_other_variant(
            self, tmp_path, data_dir, sim_dir, capsys):
        cfg = _eval_cfg(tmp_path, data_dir,
                        [{"name": "mdn_rnn", **_checkpoints(sim_dir, "rnn")}])
        code = main(["eval", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--seed", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'rnn' model" in err and "'mdn_rnn'" in err

    def test_train_agent_rejects_state_checkpoint_of_other_variant(
            self, tmp_path, data_dir, sim_dir, capsys):
        cfg = tmp_path / "agent.json"
        cfg.write_text(json.dumps({"train_agent": {
            "data": str(data_dir / "cohort.csv"), "variant": "rnn",
            "checkpoints": _checkpoints(sim_dir, "mdn_rnn"),
            "dqn": {"total_steps": 10}}}))
        code = main(["train-agent", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--seed", "0"])
        assert code == 2
        assert "'mdn_rnn' model" in capsys.readouterr().err

    def test_eval_loads_each_variant_once(self, tmp_path, data_dir, sim_dir,
                                          monkeypatch):
        from sepsim import cli

        built = []
        real_build = cli._build_env

        def counting_build(sim, pool, stats):
            built.append(sim.variant)
            return real_build(sim, pool, stats)

        monkeypatch.setattr(cli, "_build_env", counting_build)
        variants = [{"name": v, **_checkpoints(sim_dir, v)}
                    for v in ("rnn", "mdn_rnn")]
        cfg = _eval_cfg(tmp_path, data_dir, variants,
                        qnet=str(sim_dir / "qnet.json"),
                        agent_variant="mdn_rnn", policy_episodes=2)
        for run in ("a", "b"):
            assert main(["eval", "--config", str(cfg), "--out",
                         str(tmp_path / run), "--seed", "0"]) == 0
        assert built == ["rnn", "mdn_rnn"] * 2
        for name in ("trajectories.csv", "histograms.csv", "metrics.json"):
            assert _sha(tmp_path / "a" / name) == _sha(tmp_path / "b" / name)


def _two_variant_eval(tmp_path, data_dir, sim_dir, **extra):
    """Run eval on rnn and mdn_rnn with a Q-net on mdn_rnn; its out dir."""
    variants = [{"name": v, **_checkpoints(sim_dir, v)}
                for v in ("rnn", "mdn_rnn")]
    cfg = _eval_cfg(tmp_path, data_dir, variants,
                    qnet=str(sim_dir / "qnet.json"), agent_variant="mdn_rnn",
                    policy_episodes=2, **extra)
    out = tmp_path / "out"
    assert main(["eval", "--config", str(cfg), "--out", str(out),
                 "--seed", "0"]) == 0
    return out


def test_eval_steps_each_episode_once(tmp_path, data_dir, sim_dir,
                                      monkeypatch):
    """Eval steps the env once per closed-loop step and once per policy
    step: trajectories.csv is written from the closed-loop replay."""
    from sepsim.env import PatientEnv

    steps = []
    real_step = PatientEnv.step

    def counting_step(self, action):
        steps.append(self.state_model.config.variant)
        return real_step(self, action)

    monkeypatch.setattr(PatientEnv, "step", counting_step)
    out = _two_variant_eval(tmp_path, data_dir, sim_dir)
    # one row per state: each episode's initial row, then one per step
    rows = _data_rows(out / "trajectories.csv")
    closed_loop = {v: sum(row[0] == v and row[2] != "0" for row in rows)
                   for v in ("rnn", "mdn_rnn")}
    metrics = json.loads((out / "metrics.json").read_text())
    policy = round(metrics["policy_mean_length"] * 2)   # policy_episodes=2
    assert closed_loop["rnn"] > 0 and policy > 0
    assert steps.count("rnn") == closed_loop["rnn"]
    assert steps.count("mdn_rnn") == closed_loop["mdn_rnn"] + policy


def test_eval_trajectories_carry_the_closed_loop_series(tmp_path, data_dir,
                                                        sim_dir):
    """Each plot episode's rows in trajectories.csv hold the text of the
    sim column of closed_loop_<name>.csv, cell for cell."""
    out = _two_variant_eval(tmp_path, data_dir, sim_dir, plot_episodes=2)
    with open(out / "trajectories.csv", newline="", encoding="utf-8") as fh:
        header, *traj_rows = csv.reader(fh)
    features = header[6:]
    for variant in ("rnn", "mdn_rnn"):
        # closed_loop columns: variant, episode, feature, t, real, sim
        series = {(ep, name, t): sim for _, ep, name, t, _, sim
                  in _data_rows(out / f"closed_loop_{variant}.csv")}
        from_traj = {(row[1], name, row[2]): cell for row in traj_rows
                     if row[0] == variant and row[1] in ("0", "1")
                     for name, cell in zip(features, row[6:], strict=True)}
        assert {key[0] for key in series} == {"0", "1"}
        assert series == from_traj


def _count_float_cells(monkeypatch):
    """Patch float_cells wherever sepsim binds it; returns the list that
    collects each call's values as a float64 array."""
    from sepsim import checkpoint, data, evaluation

    formatted = []
    real_float_cells = checkpoint.float_cells

    def counting(values):
        formatted.append(np.array(values, dtype=np.float64))
        return real_float_cells(values)

    for module in (checkpoint, cli, data, evaluation):
        monkeypatch.setattr(module, "float_cells", counting)
    return formatted


def _calls_per_array(formatted):
    """How many float_cells calls had each (shape, bits) of values."""
    from collections import Counter

    return Counter((a.shape, a.tobytes()) for a in formatted)


def test_eval_and_rollout_format_each_float_once(tmp_path, data_dir, sim_dir,
                                                 monkeypatch):
    """Each replayed trajectory's states and each plot episode's recorded
    states go through float_cells exactly once, for every file that holds
    them, and the values formatted are the floats the outputs hold, each
    source counted once: trajectories.csv's states and rewards, the plot
    episodes' recorded states, the teacher-forced predictions, the NTM
    table and the histogram edges that label bins in eval; the trajectories
    in rollout."""
    formatted = _count_float_cells(monkeypatch)
    replayed = []
    real_replay = cli.closed_loop_trajectories

    def recording(env, cohort):
        replayed.append((cohort, real_replay(env, cohort)))
        return replayed[-1][1]

    monkeypatch.setattr(cli, "closed_loop_trajectories", recording)
    out = _two_variant_eval(tmp_path, data_dir, sim_dir, plot_episodes=2)
    calls = _calls_per_array(formatted)
    cohort = replayed[0][0]
    plot = cohort.episodes[:2]
    # the targets of the teacher-forced plot series are these episodes' rows
    assert all(e.length > 1 for e in plot)
    for _, replays in replayed:
        for replay in replays:
            assert calls[replay.states.shape, replay.states.tobytes()] == 1
    for episode in plot:
        assert calls[episode.states.shape, episode.states.tobytes()] == 1
    traj_rows = len(_data_rows(out / "trajectories.csv"))
    assert traj_rows == sum(r.n_steps + 1 for _, rs in replayed for r in rs)
    predictions = sum(len(_data_rows(out / f"teacher_forced_{v}.csv"))
                      for v in ("rnn", "mdn_rnn"))
    ntm_rows = len(_data_rows(out / "ntm.csv"))
    # each family formats the edge that labels each of its bins, no more
    bins = [row[0] for row in _data_rows(out / "histograms.csv")]
    edges = sum(bins.count(family) for family in ("length", "return"))
    width = cohort.episodes[0].states.shape[1]
    assert sum(a.size for a in formatted) == (
        traj_rows * (width + 1) + sum(e.length for e in plot) * width
        + predictions + 3 * ntm_rows + edges)

    formatted.clear()
    rolled = []
    real_rollout = cli.rollout

    def recording_rollout(env, policy):
        rolled.append(real_rollout(env, policy))
        return rolled[-1]

    monkeypatch.setattr(cli, "rollout", recording_rollout)
    section = {**_mdn_rollout_section(data_dir, sim_dir), "policy": "random",
               "episodes": 3}
    (tmp_path / "rollout").mkdir()
    assert _run_section(tmp_path / "rollout", "rollout", section) == 0
    calls = _calls_per_array(formatted)
    assert len(rolled) == 3
    for traj in rolled:
        assert calls[traj.states.shape, traj.states.tobytes()] == 1
    traj_rows = len(_data_rows(tmp_path / "rollout" / "out" / "trajectories.csv"))
    assert sum(a.size for a in formatted) == traj_rows * (width + 1)


@pytest.mark.parametrize("shape", [None, {"obs_dim": 40}, {"n_actions": 3}],
                         ids=["termination", "inputs", "actions"])
def test_eval_refuses_a_qnet_it_cannot_run(tmp_path, data_dir, sim_dir,
                                           monkeypatch, capsys, shape):
    """A qnet of another kind, or one whose input width or action count is
    not the simulator's, exits 2 naming the key before any variant is built."""
    def refuse(*args):
        raise AssertionError("a variant was built")

    monkeypatch.setattr(cli, "_build_env", refuse)
    path = sim_dir / "termination.json"
    if shape is not None:
        path = tmp_path / "qnet.json"
        QNetwork(rng=np.random.default_rng(0), **shape).save(path)
    variants = [{"name": "rnn", **_checkpoints(sim_dir, "rnn")}]
    cfg = _eval_cfg(tmp_path, data_dir, variants, qnet=str(path),
                    policy_episodes=2)
    code = main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "qnet checkpoint" in err
    assert not (tmp_path / "out" / "metrics.json").exists()


@pytest.fixture(scope="module")
def latent_dir(tmp_path_factory, data_dir):
    """A vae_rnn state model and heads trained on the seed-0 VAE, plus a
    VAE from seed 1 and copies of the state model and the heads that record
    no hash."""
    from sepsim.dynamics import StateModel

    out = tmp_path_factory.mktemp("latent")
    data = str(data_dir / "cohort.csv")
    for seed in ("0", "1"):
        cfg = out / "vae_cfg.json"
        cfg.write_text(json.dumps({"train_vae": {"data": data, "epochs": 1}}))
        assert main(["train-vae", "--config", str(cfg),
                     "--out", str(out / f"vae{seed}"), "--seed", seed]) == 0
    heads = {"data": data, "epochs": 1,
             "encoder": str(out / "vae0" / "vae.json")}
    small = {**heads, "window": 3, "rnn_hidden": 8, "variant": "vae_rnn"}
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"train_state": small, "train_heads": heads}))
    for stage in ("train-state", "train-heads"):
        assert main([stage, "--config", str(cfg), "--out", str(out),
                     "--seed", "0"]) == 0
    StateModel.load(out / "state_vae_rnn.json").save(out / "state_nohash.json")
    for kind in ("termination", "outcome"):
        doc = json.loads((out / f"{kind}.json").read_text())
        del doc["hyperparams"]["encoder_sha256"]
        (out / f"{kind}_nohash.json").write_text(json.dumps(doc))
    return out


def _latent_checkpoints(latent_dir, vae_seed, state="state_vae_rnn.json",
                        heads=""):
    return {"state": str(latent_dir / state),
            "termination": str(latent_dir / f"termination{heads}.json"),
            "outcome": str(latent_dir / f"outcome{heads}.json"),
            "encoder": str(latent_dir / f"vae{vae_seed}" / "vae.json")}


def _rollout(tmp_path, data_dir, checkpoints, out="out"):
    cfg = tmp_path / "rollout.json"
    cfg.write_text(json.dumps({"rollout": {
        "data": str(data_dir / "cohort.csv"), "variant": "vae_rnn",
        "checkpoints": checkpoints, "episodes": 2, "max_steps": 4,
        "termination_mode": "threshold"}}))
    return main(["rollout", "--config", str(cfg), "--out",
                 str(tmp_path / out), "--seed", "0"])


class TestEncoderHash:
    def test_rollout_rejects_encoder_of_other_run(self, tmp_path, data_dir,
                                                  latent_dir, capsys):
        assert _rollout(tmp_path, data_dir,
                        _latent_checkpoints(latent_dir, 1)) == 2
        err = capsys.readouterr().err
        assert "is not the one" in err and "vae1" in err
        assert _rollout(tmp_path, data_dir, _latent_checkpoints(latent_dir, 0),
                        out="ok") == 0

    def test_eval_rejects_encoder_of_other_run(self, tmp_path, data_dir,
                                               latent_dir, capsys):
        cfg = _eval_cfg(tmp_path, data_dir, [
            {"name": "vae_rnn", **_latent_checkpoints(latent_dir, 1)}])
        code = main(["eval", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--seed", "0"])
        assert code == 2
        assert "is not the one" in capsys.readouterr().err

    def test_train_agent_rejects_encoder_of_other_run(self, tmp_path, data_dir,
                                                      latent_dir, capsys):
        cfg = tmp_path / "agent.json"
        cfg.write_text(json.dumps({"train_agent": {
            "data": str(data_dir / "cohort.csv"), "variant": "vae_rnn",
            "checkpoints": _latent_checkpoints(latent_dir, 1),
            "dqn": {"total_steps": 10}}}))
        code = main(["train-agent", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--seed", "0"])
        assert code == 2
        assert "is not the one" in capsys.readouterr().err

    def test_rollout_rejects_heads_of_other_encoder(self, tmp_path, data_dir,
                                                    latent_dir, capsys):
        """Heads record their encoder as the state model does, and are
        checked with it: here the state model records none."""
        checkpoints = _latent_checkpoints(latent_dir, 1, state="state_nohash.json")
        assert _rollout(tmp_path, data_dir, checkpoints) == 2
        err = capsys.readouterr().err
        assert "is not the one termination checkpoint" in err
        assert checkpoints["termination"] in err and "vae1" in err

    def test_state_checkpoint_without_hash_passes(self, tmp_path, data_dir,
                                                  latent_dir):
        """Checkpoints that record no encoder, heads included, are not
        checked."""
        checkpoints = _latent_checkpoints(latent_dir, 1, state="state_nohash.json",
                                          heads="_nohash")
        assert _rollout(tmp_path, data_dir, checkpoints) == 0


def _hashing_sections(data_dir, sim_dir, latent_dir):
    data = str(data_dir / "cohort.csv")
    encoder = str(latent_dir / "vae0" / "vae.json")
    latent = {"data": data, "variant": "vae_rnn", "max_steps": 4,
              "termination_mode": "threshold",
              "checkpoints": _latent_checkpoints(latent_dir, 0)}
    return {
        "train-state": {"data": data, "epochs": 1, "window": 3, "rnn_hidden": 8,
                        "variant": "vae_rnn", "encoder": encoder},
        "train-heads": {"data": data, "epochs": 1, "encoder": encoder},
        "rollout": {**latent, "episodes": 2},
        "train-agent": {**latent, "dqn": {"total_steps": 10}},
        "eval": {"data": data, "eval_episodes": 2, "max_steps": 4,
                 "termination_mode": "threshold", "policy_episodes": 2,
                 "qnet": str(sim_dir / "qnet.json"), "agent_variant": "vae_rnn",
                 "variants": [{"name": "rnn", **_checkpoints(sim_dir, "rnn")},
                              {"name": "vae_rnn",
                               **_latent_checkpoints(latent_dir, 0)}]},
    }


@pytest.mark.parametrize("stage", ["train-state", "train-heads", "rollout",
                                   "train-agent", "eval"])
def test_stage_hashes_each_input_file_once(tmp_path, data_dir, sim_dir,
                                           latent_dir, monkeypatch, stage):
    """The manifest, the encoder check and the encoder_sha256 of the state
    checkpoint and the heads reuse the digest taken as the input was read."""
    from sepsim import checkpoint

    hashed = []

    def counting_sha256(data=b""):
        hashed.append(bytes(data))
        return hashlib.sha256(data)

    monkeypatch.setattr(checkpoint, "hashlib",
                        SimpleNamespace(sha256=counting_sha256))
    section = _hashing_sections(data_dir, sim_dir, latent_dir)[stage]
    assert _run_section(tmp_path, stage, section) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    paths = {key: section[key] for key in ("data", "encoder", "qnet")
             if key in section}
    for key, path in section.get("checkpoints", {}).items():
        paths[key] = path
    for variant in section.get("variants", []):
        paths.update((f"{variant['name']}.{key}", path)
                     for key, path in variant.items() if key != "name")
    assert sorted(manifest["inputs"]) == sorted(paths)
    for key, path in paths.items():
        data = Path(path).read_bytes()
        assert hashed.count(data) == 1, key
        assert manifest["inputs"][key] == hashlib.sha256(data).hexdigest()
    models = {"train-state": ["state_vae_rnn.json"],
              "train-heads": ["termination.json", "outcome.json"]}.get(stage, [])
    for name in models:
        doc = json.loads((tmp_path / "out" / name).read_text())
        assert doc["hyperparams"]["encoder_sha256"] == manifest["inputs"]["encoder"]


def _reaching_section(stage, data_dir, sim_dir, latent_dir):
    """A section on which `stage` runs to the end and reads every file key of
    its schema, the encoder keys included."""
    data = str(data_dir / "cohort.csv")
    sections = _hashing_sections(data_dir, sim_dir, latent_dir)
    sections["eval"]["variants"] = [{"name": "vae_rnn",
                                     **_latent_checkpoints(latent_dir, 0)}]
    return {"synth-data": {"episodes": 3}, "train-vae": {"data": data, "epochs": 1},
            "ntm": {"real": data, "sim": data}, **sections}[stage]


@pytest.mark.parametrize("stage", list(cli._SCHEMA))
def test_manifest_outputs_are_the_files_the_stage_wrote(
        tmp_path, data_dir, sim_dir, latent_dir, stage):
    """manifest.json's outputs are keyed by file name: every file the stage
    left in --out, metrics.json included and manifest.json excepted."""
    section = _reaching_section(stage, data_dir, sim_dir, latent_dir)
    assert _run_section(tmp_path, stage, section) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert sorted(manifest["outputs"]) == written
    assert "metrics.json" in written and len(written) > 1
    for name, digest in manifest["outputs"].items():
        assert digest == _sha(out / name), name


def _simulator_section(stage, data_dir, variant, checkpoints):
    """A rollout, train-agent or eval section over one simulator."""
    section = {"data": str(data_dir / "cohort.csv"), "max_steps": 4,
               "termination_mode": "threshold"}
    if stage == "eval":
        return {**section, "variants": [{"name": variant, **checkpoints}],
                "eval_episodes": 2}
    section.update(variant=variant, checkpoints=checkpoints)
    section.update({"rollout": {"episodes": 2},
                    "train-agent": {"dqn": {"total_steps": 10}}}[stage])
    return section


_SIMULATOR_STAGES = ("rollout", "train-agent", "eval")


class TestCheckpointFit:
    """Checkpoints that do not fit the simulator are config errors that name
    their checkpoint key, raised as the simulator is built."""

    @pytest.mark.parametrize("key, other", [("termination", "outcome"),
                                            ("outcome", "termination"),
                                            ("state", "termination")])
    @pytest.mark.parametrize("stage", _SIMULATOR_STAGES)
    def test_checkpoint_of_other_kind(self, tmp_path, data_dir, sim_dir, capsys,
                                      stage, key, other):
        checkpoints = {**_checkpoints(sim_dir, "rnn"),
                       key: str(sim_dir / f"{other}.json")}
        code = _run_section(tmp_path, stage, _simulator_section(
            stage, data_dir, "rnn", checkpoints))
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{key} checkpoint" in err
        assert f"holds a '{other}' model, expected '{key}" in err

    @pytest.mark.parametrize("stage", _SIMULATOR_STAGES)
    def test_encoder_of_other_kind(self, tmp_path, data_dir, sim_dir, latent_dir,
                                   capsys, stage):
        checkpoints = _latent_checkpoints(latent_dir, 0, state="state_nohash.json")
        checkpoints["encoder"] = str(sim_dir / "termination.json")
        code = _run_section(tmp_path, stage, _simulator_section(
            stage, data_dir, "vae_rnn", checkpoints))
        err = capsys.readouterr().err
        assert code == 2, err
        assert "encoder checkpoint" in err
        assert "holds a 'termination' model, expected 'vae' or 'ae'" in err

    @pytest.mark.parametrize("stage", _SIMULATOR_STAGES)
    def test_heads_of_other_width(self, tmp_path, data_dir, sim_dir, latent_dir,
                                  capsys, stage):
        """Heads trained on the 46 raw features under a 30-dim vae_rnn."""
        checkpoints = {**_latent_checkpoints(latent_dir, 0),
                       "termination": str(sim_dir / "termination.json"),
                       "outcome": str(sim_dir / "outcome.json")}
        code = _run_section(tmp_path, stage, _simulator_section(
            stage, data_dir, "vae_rnn", checkpoints))
        err = capsys.readouterr().err
        assert code == 2, err
        assert "termination checkpoint" in err
        assert "takes 46 state features, but the state model gives 30" in err


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    """Cohorts of one and of two episodes, in subdirectories 1 and 2."""
    out = tmp_path_factory.mktemp("tiny")
    for n in (1, 2):
        assert main(["synth-data", "--out", str(out / str(n)), "--seed", "5",
                     "--set", f"episodes={n}"]) == 0
    return out


@pytest.mark.parametrize("stage, episodes", [
    *[(stage, 1) for stage in ("train-vae", "train-state", "train-heads",
                               "rollout", "train-agent", "eval")],
    ("train-state", 2), ("train-heads", 2)])
def test_cohort_too_small_to_split_exits_2_naming_data(
        tmp_path, data_dir, sim_dir, tiny_dir, capsys, stage, episodes):
    """Every stage splits its cohort; train-state and train-heads split the
    training half again, so two episodes are too few for them."""
    section = {**_valid_section(stage, data_dir, sim_dir),
               "data": str(tiny_dir / str(episodes) / "cohort.csv")}
    code = _run_section(tmp_path, stage, section)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "data: " in err and "needs 2" in err


def test_buffer_capacity_above_total_steps_changes_nothing(tmp_path, data_dir,
                                                           sim_dir):
    """The buffer holds at most total_steps rows, so a capacity of 10**12
    trains the same Q-net as a capacity of total_steps."""
    qnets = []
    for capacity in (10, 10 ** 12):
        run = tmp_path / str(capacity)
        run.mkdir()
        section = {**_simulator_section("train-agent", data_dir, "rnn",
                                        _checkpoints(sim_dir, "rnn")),
                   "dqn": {"total_steps": 10, "batch_size": 4,
                           "buffer_capacity": capacity}}
        assert _run_section(run, "train-agent", section) == 0
        qnets.append((run / "out" / "qnet.json").read_bytes())
    assert qnets[0] == qnets[1]


@pytest.mark.parametrize("stage, extra, key", [
    ("rollout", {"policy": "random", "episodes": 0}, "episodes"),
    ("rollout", {"policy": "physician", "episodes": -3}, "episodes"),
    ("eval", {"eval_episodes": 0}, "eval_episodes"),
    ("eval", {"plot_episodes": 0}, "plot_episodes"),
    ("eval", {"policy_episodes": 0}, "policy_episodes"),
    ("eval", {"agent_variant": "mdn_rnn"}, "agent_variant"),
    ("eval", {"qnet": "absent.json"}, "qnet"),
    ("rollout", {"policy": "physician", "episodes": 1000}, "episodes"),
    ("eval", {"eval_episodes": 1000}, "eval_episodes"),
])
def test_bad_counts_and_agent_settings_fail_before_any_checkpoint_loads(
        tmp_path, data_dir, sim_dir, monkeypatch, capsys, stage, extra, key):
    from sepsim import checkpoint

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint was loaded")

    monkeypatch.setattr(checkpoint, "load_checkpoint", refuse)
    section = {"data": str(data_dir / "cohort.csv"), "max_steps": 5,
               "termination_mode": "threshold"}
    if stage == "rollout":
        section.update(variant="rnn", checkpoints=_checkpoints(sim_dir, "rnn"))
    else:
        section.update(variants=[{"name": "rnn", **_checkpoints(sim_dir, "rnn")}],
                       qnet=str(sim_dir / "qnet.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({stage: {**section, **extra}}))
    code = main([stage, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "0"])
    assert code == 2
    assert key in capsys.readouterr().err


# ---- one schema: every config value is typed and checked before any input

class InputsReached(Exception):
    """Raised where a stage would read its first input."""


def _refuse_inputs(monkeypatch):
    from sepsim import checkpoint

    def reached(*args, **kwargs):
        raise InputsReached

    monkeypatch.setattr(cli, "load_cohort", reached)
    monkeypatch.setattr(checkpoint, "load_checkpoint", reached)
    monkeypatch.setattr(cli, "SyntheticDynamicsSpec", SimpleNamespace(default=reached))


def _valid_section(stage, data_dir, sim_dir):
    """A section on which `stage` runs until it reads its first input."""
    data = str(data_dir / "cohort.csv")
    simulator = {"data": data, "variant": "rnn",
                 "checkpoints": _checkpoints(sim_dir, "rnn")}
    return {"synth-data": {}, "train-vae": {"data": data},
            "train-state": {"data": data, "variant": "rnn"},
            "train-heads": {"data": data}, "rollout": simulator,
            "train-agent": simulator,
            "eval": {"data": data,
                     "variants": [{"name": "rnn", **_checkpoints(sim_dir, "rnn")}]},
            "ntm": {"real": data, "sim": data}}[stage]


def _run_section(tmp_path, stage, section, *argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({stage.replace("-", "_"): section}))
    return main([stage, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "0", *argv])


@pytest.mark.parametrize("stage, override, key", [
    ("train-vae", "learning_rate=abc", "learning_rate"),
    ("ntm", "ntm_mode=foo", "ntm_mode"),
    ("synth-data", "generator=5", "generator"),
    ("train-vae", "epochs=2.7", "epochs"),
    ("train-heads", "batch_size=true", "batch_size"),
    ("synth-data", "episodes=2.5", "episodes"),
    ("train-heads", "suffix=[1]", "suffix"),
    ("train-heads", "suffix=../x", "suffix"),
    ("train-state", "learning_rate=inf", "learning_rate"),
    ("train-state", "learning_rate=Infinity", "learning_rate"),
    ("rollout", "temperature=nan", "temperature"),
    ("rollout", "temperature=NaN", "temperature"),
    ("rollout", "temperature=0", "temperature"),
    ("rollout", "max_steps=2.7", "max_steps"),
    ("rollout", "max_steps=0", "max_steps"),
    ("train-agent", 'dqn={"total_steps": 2.5}', "dqn.total_steps"),
    ("train-agent", 'dqn={"total_steps": 0}', "total_steps"),
    ("eval", "ntm_mode=foo", "ntm_mode"),
])
def test_bad_value_exits_2_naming_stage_and_key(
        tmp_path, data_dir, sim_dir, monkeypatch, capsys, stage, override, key):
    _refuse_inputs(monkeypatch)
    code = _run_section(tmp_path, stage, _valid_section(stage, data_dir, sim_dir),
                        "--set", override)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"error: {stage}: " in err and key in err


def _mdn_rollout_section(data_dir, sim_dir):
    return {"data": str(data_dir / "cohort.csv"), "variant": "mdn_rnn",
            "checkpoints": _checkpoints(sim_dir, "mdn_rnn"), "episodes": 2,
            "max_steps": 4}


def test_temperature_below_the_floor_exits_2_before_any_input(
        tmp_path, data_dir, sim_dir, monkeypatch, capsys):
    """Near sys.float_info.min the mixture draw overflows mid-rollout for
    enough components, so the schema refuses it before a checkpoint is
    read."""
    _refuse_inputs(monkeypatch)
    code = _run_section(tmp_path, "rollout", _mdn_rollout_section(data_dir, sim_dir),
                        "--set", f"temperature={sys.float_info.min!r}")
    err = capsys.readouterr().err
    assert code == 2, err
    assert ("error: rollout: temperature must be >= 1e-306, "
            "got 2.2250738585072014e-308") in err


def test_rollout_mean_return_sums_each_episode_left_to_right(tmp_path, data_dir,
                                                             sim_dir):
    """Under sofa_lactate_shaped every step but the terminal one, which
    earns +/-15, has a shaped reward, so a 20-step episode's return is a
    sum of 20 terms. `mean_return` takes it as
    train-agent and eval's policy histogram do, left to right: numpy's
    pairwise sum, which can differ from 8 terms on, is not it."""
    # a termination head that never ends an episode before max_steps
    never = BinaryHead("termination", state_dim=46)
    for param in never.parameters():
        param.data[:] = 0.0
    never.net.layers[-1].b.data[:] = -50.0
    never.save(tmp_path / "never.json")
    checkpoints = {**_checkpoints(sim_dir, "rnn"),
                   "termination": str(tmp_path / "never.json")}
    section = {"data": str(data_dir / "cohort.csv"), "variant": "rnn",
               "checkpoints": checkpoints, "policy": "random", "episodes": 1,
               "max_steps": 20, "termination_mode": "threshold",
               "reward": {"formulation": "sofa_lactate_shaped",
                          "sofa_index": 0, "lactate_index": 1}}
    # seed 2 draws an episode whose two sums differ
    assert _run_section(tmp_path, "rollout", section, "--seed", "2") == 0
    with (tmp_path / "out" / "trajectories.csv").open(newline="") as fh:
        # step 0 is the reset state, with reward 0
        rewards = [float(row["reward"]) for row in csv.DictReader(fh)][1:]
    assert len(rewards) == 20
    total = 0.0
    for reward in rewards:
        total += reward
    assert total != float(np.sum(rewards))
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["mean_return"] == total


def test_rollout_sim_cohort_holds_the_trajectories_states(tmp_path, data_dir,
                                                         sim_dir):
    """sim_cohort.csv takes its state cells from trajectories.csv's: it is
    written in export_cohort's bytes, and each episode's states are its
    trajectory's rows but the last. Physician replay of 4 episodes leaves
    one that the recorded actions end before the model does, which is not
    exported, so the cells must follow the completed trajectories."""
    from sepsim.data import export_cohort, load_cohort

    section = {**_mdn_rollout_section(data_dir, sim_dir), "episodes": 4}
    assert _run_section(tmp_path, "rollout", section) == 0
    out = tmp_path / "out"
    with (out / "trajectories.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    trajectories = [[row for row in rows if row["episode"] == str(ep)]
                    for ep in range(4)]
    completed = [t for t in trajectories if t[-1]["done"] == "1"]
    sim = load_cohort(out / "sim_cohort.csv")
    assert 0 < sim.n_episodes == len(completed) < 4
    export_cohort(sim, tmp_path / "again.csv")
    assert ((tmp_path / "again.csv").read_bytes()
            == (out / "sim_cohort.csv").read_bytes())
    for episode, trajectory in zip(sim.episodes, completed, strict=True):
        states = [[float(row[f]) for f in sim.feature_names] for row in trajectory]
        assert episode.states.tobytes() == np.array(states)[:-1].tobytes()


def test_smallest_temperature_runs_an_mdn_rollout(tmp_path, data_dir, sim_dir):
    code = _run_section(tmp_path, "rollout", _mdn_rollout_section(data_dir, sim_dir),
                        "--set", f"temperature={MIN_TEMPERATURE!r}")
    assert code == 0


@pytest.mark.parametrize("config_seed, argv", [
    ("abc", []), (-1, []), (2.7, []), (True, []), (0, ["--seed", "-3"])],
    ids=["abc", "negative", "fraction", "bool", "flag-negative"])
def test_bad_root_seed_exits_2_naming_seed(tmp_path, monkeypatch, capsys,
                                           config_seed, argv):
    _refuse_inputs(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": config_seed, "synth_data": {"episodes": 5}}))
    code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 *argv])
    assert code == 2
    assert "seed must be" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ({"variants": [{"name": "vae_rnn", "state": "s", "termination": "t",
                    "outcome": "o"}]}, "encoder"),
    ({"variants": [{"name": "rnn", "state": "s", "termination": "t",
                    "outcome": "o", "encoder": "e"}]}, "does not take"),
    ({"variants": [{"name": "rnn", "state": "s", "termination": "t"}]}, "outcome"),
])
def test_simulator_checkpoint_set_is_config_error(tmp_path, monkeypatch, capsys,
                                                  extra, message):
    """A variant's checkpoints must be exactly the set its simulator loads."""
    _refuse_inputs(monkeypatch)
    for name in ("s", "t", "o", "e", "cohort.csv"):
        (tmp_path / name).write_text("")
    monkeypatch.chdir(tmp_path)
    code = _run_section(tmp_path, "eval", {"data": "cohort.csv", **extra})
    err = capsys.readouterr().err
    assert code == 2, err
    assert "variants[0]" in err and message in err


def _flat_keys(rows, prefix=""):
    """Each key of a schema table, an object's keys as `key.sub` and a list
    entry's keys as `key[].sub`, mapped to its row."""
    flat = {}
    for name, row in rows.items():
        flat[prefix + name] = row
        if isinstance(row.kind, list):
            flat.update(_flat_keys(row.kind[0], f"{prefix}{name}[]."))
        elif isinstance(row.kind, dict):
            flat.update(_flat_keys(row.kind, f"{prefix}{name}."))
    return flat


_STAGE_KEY_PAIRS = [(stage, key) for stage, rows in cli._SCHEMA.items() for key in rows]
_NAMES = sorted({key.rsplit(".", 1)[-1] for rows in cli._SCHEMA.values()
                 for key in _flat_keys(rows)})
_CHOICES = sorted({choice for rows in cli._SCHEMA.values()
                   for row in _flat_keys(rows).values()
                   if isinstance(row.kind, tuple) for choice in row.kind})


def _json_values(paths):
    """JSON values: numbers (NaN and infinities included), bools, null,
    strings (the schema's choices and some existing files among them),
    lists and objects (keyed mostly by the schema's key names)."""
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=8) | st.sampled_from(_CHOICES + paths))
    return st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=4), inner,
                          max_size=4)), max_leaves=10)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_value_exits_2_naming_its_key_or_reaches_the_inputs(
        tmp_path, data_dir, sim_dir, monkeypatch, capsys, data):
    _refuse_inputs(monkeypatch)
    stage, key = data.draw(st.sampled_from(_STAGE_KEY_PAIRS), label="stage, key")
    paths = [str(data_dir / "cohort.csv"), *_checkpoints(sim_dir, "rnn").values()]
    value = data.draw(_json_values(paths), label="value")
    section = {**_valid_section(stage, data_dir, sim_dir), key: value}
    code = _run_section(tmp_path, stage, section)
    err = capsys.readouterr().err
    if code == 2:
        assert key in err, err
    else:
        assert code == 1 and "InputsReached" in err, err


_COHORT_KEYS = ("data", "real", "sim")
_FILE_KEYS = [(stage, key) for stage, rows in cli._SCHEMA.items()
              for key, row in _flat_keys(rows).items() if row.rule == "an existing file"]


@pytest.mark.parametrize("stage, key", _FILE_KEYS)
def test_every_file_key_refuses_a_file_its_loader_refuses(
        tmp_path, data_dir, sim_dir, latent_dir, capsys, stage, key):
    """Each file key of the schema is read through one reader: a checkpoint
    given for a cohort, or a cohort CSV given for a checkpoint, exits 2 with
    `<key> cohort <path>: ...` or `<key> checkpoint <path>: ...`."""
    parent, _, name = key.rpartition(".")
    if name in _COHORT_KEYS:
        wrong, what = str(sim_dir / "termination.json"), "cohort"
    else:
        wrong, what = str(data_dir / "cohort.csv"), "checkpoint"
    section = _reaching_section(stage, data_dir, sim_dir, latent_dir)
    entries = {"": [section], "checkpoints": [section.get("checkpoints")],
               "variants[]": section.get("variants")}[parent]
    for entry in entries:
        entry[name] = wrong
    code = _run_section(tmp_path, stage, section)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"error: {name} {what} {wrong}: " in err
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_an_encoder_that_is_no_checkpoint_exits_2_naming_encoder(
        tmp_path, data_dir, sim_dir, latent_dir, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    section = _reaching_section("train-heads", data_dir, sim_dir, latent_dir)
    code = _run_section(tmp_path, "train-heads", {**section, "encoder": str(path)})
    err = capsys.readouterr().err
    assert code == 2, err
    assert (f"error: encoder checkpoint {path}: not a checkpoint: a JSON list, "
            "not an object") in err


def test_a_cohort_csv_cannot_read_exits_2_naming_data(tmp_path, capsys):
    path = tmp_path / "huge_field.csv"
    path.write_text("subject_id," + "x" * (csv.field_size_limit() + 1) + "\n",
                    encoding="utf-8")
    code = _run_section(tmp_path, "train-vae", {"data": str(path)})
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"error: data cohort {path}: not a readable CSV file: " in err


def _readme_rows():
    """(key, stages, type, default) of each row of the README's table of
    config keys."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | stages | type | default | rule |")[1].split("\n\n")[0]
    for line in table.splitlines()[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        yield cells[0].strip("`"), cells[1].split(", "), cells[2], cells[3]


def test_readme_key_table_lists_each_stage_keys():
    keys: dict = {}
    for key, stages, _, _ in _readme_rows():
        for stage in stages:
            keys.setdefault(stage, set()).add(key)
    assert keys == {stage: set(_flat_keys(rows)) for stage, rows in cli._SCHEMA.items()}


def _kind_word(kind) -> str:
    """The README's type word for a schema kind."""
    if isinstance(kind, tuple):
        return "enum"
    if isinstance(kind, dict):
        return "object"
    if isinstance(kind, list):
        return "list of objects"
    return kind.__name__


def test_readme_key_table_types_and_defaults_match_the_schema():
    """Each row's type is its key's kind in every stage it lists. A fixed
    default (a number, a word or "") is the schema's default, and "required"
    or "none" is no default."""
    for key, stages, kind, default in _readme_rows():
        for stage in stages:
            row = _flat_keys(cli._SCHEMA[stage])[key]
            assert kind == _kind_word(row.kind), (stage, key)
            if default in ("required", "none"):
                assert row.default is None, (stage, key)
            elif default == '""' or re.fullmatch(r"[\w.+-]+", default):
                assert default.strip('"') == str(row.default), (stage, key)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_metric_is_refused(tmp_path, monkeypatch, capsys, value):
    from sepsim import cli

    monkeypatch.setitem(cli._STAGE_FUNCS, "ntm",
                        lambda cfg, out, seed: cli.StageResult({"gap": value}))
    code = main(["ntm", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "['gap']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.json").exists()


# ---- every float a writer emits reads back as the same double

def _awkward(rng, *shape):
    """Normal draws scaled by 1e-300..1e300, led by floats whose text is
    easy to get wrong."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = values.reshape(-1)
    specials = [0.1, 1 / 3, -0.0, 5e-324, -1e300][:flat.size]
    flat[:len(specials)] = specials
    return values


def _data_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _trajectories_csv(tmp_path, rng, request):
    from sepsim.checkpoint import float_cells
    from sepsim.cli import _open_trajectories_csv, _trajectory_lines
    from sepsim.env import ReplayTrajectory

    trajs = [ReplayTrajectory(_awkward(rng, 3), np.arange(n, dtype=np.int64),
                              _awkward(rng, n, 3), _awkward(rng, n),
                              np.arange(n) == n - 1, ({},) * n)
             for n in (4, 0, 2)]
    path = tmp_path / "trajectories.csv"
    cells = [float_cells(traj.states) for traj in trajs]
    with _open_trajectories_csv(path, ["a", "b", "c"]) as write:
        write(_trajectory_lines("rnn", trajs[:2], cells[:2]))
        write(_trajectory_lines("mdn_rnn", trajs[2:], cells[2:]))
    expected = []
    for traj in trajs:
        expected += [0.0, *traj.initial]
        for reward, obs in zip(traj.rewards, traj.observations):
            expected += [reward, *obs]
    return [c for row in _data_rows(path) for c in (row[4], *row[6:])], expected


def _ntm_csv(tmp_path, rng, request):
    from sepsim.checkpoint import write_table
    from sepsim.evaluation import NTM_HEADER, NtmReport, ntm_rows

    report = NtmReport(np.array([0.5, np.nan, 1 / 3]), _awkward(rng, 3),
                       _awkward(rng, 3), np.array([False, True, False]),
                       "sumsq")
    path = tmp_path / "ntm.csv"
    write_table(path, NTM_HEADER, ntm_rows(report, ["x", "y", "z"]))
    expected = [v for row in zip(report.real_ntm, report.sim_ntm, report.gaps)
                for v in row]
    return [c for row in _data_rows(path) for c in row[1:4]], expected


def _eval_ntm_csv(tmp_path, rng, request):
    from sepsim import cli
    from sepsim.evaluation import NtmReport

    sim_dir, data_dir = (request.getfixturevalue(name)
                         for name in ("sim_dir", "data_dir"))
    reports = []

    def awkward_ntm(real_m, sim_m, mode):
        n = real_m.values.shape[2]
        reports.append(NtmReport(_awkward(rng, n), _awkward(rng, n),
                                 np.abs(_awkward(rng, n)),
                                 np.zeros(n, dtype=bool), mode))
        return reports[-1]

    request.getfixturevalue("monkeypatch").setattr(
        cli, "normalized_trajectory_mean", awkward_ntm)
    variants = [{"name": v, **_checkpoints(sim_dir, v)}
                for v in ("rnn", "mdn_rnn")]
    cfg = _eval_cfg(tmp_path, data_dir, variants)
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "0"]) == 0
    expected = [v for r in reports
                for row in zip(r.real_ntm, r.sim_ntm, r.gaps) for v in row]
    rows = _data_rows(tmp_path / "out" / "ntm.csv")
    return [c for row in rows for c in row[2:5]], expected


def _series_csv(tmp_path, rng, request):
    from sepsim.checkpoint import float_cells
    from sepsim.evaluation import write_series_csv

    real_rows = [_awkward(rng, 4, 2), _awkward(rng, 2, 2)]
    sim_rows = [_awkward(rng, 3, 2), _awkward(rng, 5, 2)]
    path = tmp_path / "series.csv"
    write_series_csv(path, "rnn", ["a", "b"], [*map(float_cells, real_rows)],
                     [*map(float_cells, sim_rows)])
    expected = [v for real, sim in zip(real_rows, sim_rows) for f in range(2)
                for t in range(min(len(real), len(sim)))
                for v in (real[t, f], sim[t, f])]
    return [c for row in _data_rows(path) for c in row[4:6]], expected


def _histograms_csv(tmp_path, rng, request):
    from sepsim.evaluation import (HistogramPair, PolicyComparison,
                                   write_histograms_csv)

    pairs = [HistogramPair(_awkward(rng, n + 1), rng.integers(0, 9, n),
                           rng.integers(0, 9, n)) for n in (3, 4)]
    comparison = PolicyComparison(rng.integers(0, 9, 25), rng.integers(0, 9, 25),
                                  *pairs, False, False)
    path = tmp_path / "histograms.csv"
    write_histograms_csv(comparison, path)
    expected = [*pairs[0].edges[:3], *pairs[1].edges[:4]]
    return [row[1] for row in _data_rows(path) if row[0] != "action"], expected


def _reward_curve_csv(tmp_path, rng, request):
    from sepsim.agent import EpisodeRecord, write_reward_curve

    episodes = [EpisodeRecord(i, float(ret), 3, float(eps)) for i, (ret, eps)
                in enumerate(zip(_awkward(rng, 6), rng.random(6)))]
    path = tmp_path / "reward_curve.csv"
    write_reward_curve(episodes, path)
    expected = [v for e in episodes for v in (e.ret, e.epsilon)]
    return [c for row in _data_rows(path) for c in (row[1], row[3])], expected


def _stats_json(tmp_path, rng, request):
    from sepsim.data import N_FEATURES, NormalizationStats, write_stats_json

    stats = NormalizationStats(_awkward(rng, N_FEATURES),
                               np.arange(1, N_FEATURES + 1) / 3)
    path = tmp_path / "stats.json"
    write_stats_json(stats, [f"f{i}" for i in range(N_FEATURES)], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["mean"] + doc["std"], [*stats.mean, *stats.std]


@pytest.mark.parametrize("case", [_trajectories_csv, _ntm_csv, _eval_ntm_csv,
                                  _series_csv, _histograms_csv,
                                  _reward_curve_csv, _stats_json],
                         ids=lambda case: case.__name__.lstrip("_"))
def test_written_floats_read_back_bit_equal(tmp_path, request, case):
    cells, expected = case(tmp_path, np.random.default_rng(0), request)
    assert len(cells) == len(expected) > 0
    back = np.array([float(c) for c in cells])
    np.testing.assert_array_equal(back.view(np.uint64),
                                  np.array(expected, dtype=np.float64).view(np.uint64))


# ---- every stage refuses section keys it does not read

@pytest.mark.parametrize("stage", ["synth-data", "train-vae", "train-state",
                                   "train-heads", "rollout", "train-agent",
                                   "eval", "ntm"])
def test_unknown_config_key_is_refused_before_any_file_is_read(
        tmp_path, data_dir, monkeypatch, capsys, stage):
    from sepsim import checkpoint, cli

    def refuse(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(cli, "load_cohort", refuse)
    monkeypatch.setattr(checkpoint, "load_checkpoint", refuse)
    section = {"data": str(data_dir / "cohort.csv")}
    if stage == "synth-data":
        section = {"episodes": 5}
    elif stage == "ntm":
        section = {"real": section["data"], "sim": section["data"]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({stage.replace("-", "_"): section}))
    out = tmp_path / "out"
    code = main([stage, "--config", str(cfg), "--out", str(out), "--seed", "0",
                 "--set", "epochz=3", "--set", "bogus=1"])
    assert code == 2
    assert f"unknown config keys for {stage}: bogus, epochz" in capsys.readouterr().err
    assert not out.exists()


def test_misspelt_synth_data_key_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["synth-data", "--out", str(out), "--set", "episodes=5",
                 "--set", "episodez=50"])
    assert code == 2
    assert "episodez" in capsys.readouterr().err
    assert not (out / "cohort.csv").exists()


@pytest.mark.parametrize("key", ["variant", "checkpoints"])
def test_eval_refuses_section_level_variant_keys(tmp_path, data_dir, sim_dir,
                                                 capsys, key):
    cfg = _eval_cfg(tmp_path, data_dir,
                    [{"name": "rnn", **_checkpoints(sim_dir, "rnn")}],
                    **{key: "rnn" if key == "variant" else _checkpoints(sim_dir, "rnn")})
    code = main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "0"])
    assert code == 2
    assert f"unknown config keys for eval: {key}" in capsys.readouterr().err


# ---- sidecars change no output

def test_outputs_are_byte_identical_with_sidecars_present(tmp_path, data_dir,
                                                          monkeypatch):
    """train-state, train-heads and eval from clean input directories, then
    again with every input's sidecar in place: each file a stage writes,
    manifests included, is byte-identical, and the second run parses
    nothing."""
    import shutil

    from sepsim import checkpoint, data

    base = tmp_path / "run"
    (base / "data").mkdir(parents=True)
    shutil.copy(data_dir / "cohort.csv", base / "data" / "cohort.csv")
    cohort = str(base / "data" / "cohort.csv")
    small = {"data": cohort, "epochs": 1, "window": 3, "rnn_hidden": 8,
             "variant": "rnn"}
    checkpoints = {"state": str(base / "state" / "state_rnn.json"),
                   "termination": str(base / "heads" / "termination.json"),
                   "outcome": str(base / "heads" / "outcome.json")}
    stages = [("train-state", "state", {"train_state": small}),
              ("train-heads", "heads", {"train_heads": {"data": cohort,
                                                        "epochs": 1}}),
              ("eval", "eval", {"eval": {
                  "data": cohort, "variants": [{"name": "rnn", **checkpoints}],
                  "eval_episodes": 3, "max_steps": 5,
                  "termination_mode": "threshold"}})]

    def run():
        for stage, out, doc in stages:
            cfg = base / f"{out}.json"
            cfg.write_text(json.dumps(doc))
            assert main([stage, "--config", str(cfg), "--out",
                         str(base / out), "--seed", "0"]) == 0
        return {str(p.relative_to(base)): p.read_bytes()
                for p in sorted(base.rglob("*")) if p.is_file()}

    first = run()
    sidecars = sorted(name for name in first if name.endswith(".sepsim-cache.npz"))
    assert sidecars == ["data/.cohort.csv.sepsim-cache.npz",
                        "heads/.outcome.json.sepsim-cache.npz",
                        "heads/.termination.json.sepsim-cache.npz",
                        "state/.state_rnn.json.sepsim-cache.npz"]

    def refuse(*args, **kwargs):
        raise AssertionError("parsed although a sidecar matches")

    monkeypatch.setattr(checkpoint, "_parse_checkpoint", refuse)
    monkeypatch.setattr(data, "_parse_cohort", refuse)
    second = run()
    assert list(second) == list(first)
    for name in first:
        assert second[name] == first[name], name
    assert "eval/manifest.json" in first and "state/manifest.json" in first
