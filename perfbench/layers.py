"""The sepsim functions the benchmark wraps, and the metrics made from them.

``LayerProbe(full=False)`` wraps only the four calls that the end-to-end
metrics need a count or a time from (``fit``, ``train_agent``,
``PatientEnv.step`` and ``PatientEnv.reset``); each is called at most once
per environment step, so an untraced run pays well under a percent for them.
``LayerProbe(full=True)`` wraps every layer boundary below, for the traced
run.
"""
from __future__ import annotations

import os
import sys
from collections import Counter

from tracer import Tracer

# Per-layer names, in report order: <module>.<function>.
LAYER_FUNCTIONS = (
    "nn.backward", "nn.adam_step", "nn.lstm_step", "nn.logsumexp",
    "nn.lstm_step_np", "nn.mlp_forward_np",
    "dynamics.predict", "dynamics.predict_batch", "dynamics.from_history",
    "dynamics.sample_next",
    "heads.predict_proba", "vae.encode_mean", "vae.decode",
    "env.step", "env.reset", "env.replay_physician", "env.build",
    "agent.td_update", "agent.act", "agent.buffer_sample", "agent.q_values",
    "agent.policy_histogram",
    "evaluation.teacher_forced_eval", "evaluation.closed_loop_trajectories",
    "evaluation.write_series_csv",
    "checkpoint.load", "checkpoint.save",
    "data.load_cohort", "data.prepare_cohorts", "data.export_cohort",
)
PERCENTILE_FUNCTIONS = ("env.step", "agent.td_update")
BYTES_FUNCTIONS = ("checkpoint.load", "checkpoint.save", "data.load_cohort")
STAGES = ("train-vae", "train-state", "train-heads", "train-agent", "eval",
          "rollout")
RATIOS = ("env.replays_per_episode", "dynamics.rows_per_lstm_call",
          "dynamics.window_fill", "env.builds_per_variant")
OVERHEAD = "trace.overhead_frac"


def per_layer_names() -> list[str]:
    """Every metric a traced run reports, in order."""
    names = []
    for fn in LAYER_FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.total_s", f"{fn}.self_s"]
        if fn in PERCENTILE_FUNCTIONS:
            names += [f"{fn}.p50_us", f"{fn}.p99_us", f"{fn}.samples"]
        if fn in BYTES_FUNCTIONS:
            names.append(f"{fn}.bytes")
    names += [f"cli.run_stage.{stage}.total_s" for stage in STAGES]
    return names + list(RATIOS) + [OVERHEAD]


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "samples": "count", "total_s": "s", "self_s": "s",
            "p50_us": "us", "p99_us": "us", "bytes": "bytes"}.get(suffix, "ratio")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class LayerProbe:
    """A Tracer over sepsim plus the counters the ratio metrics need."""

    def __init__(self, full: bool):
        import sepsim.agent as agent
        import sepsim.checkpoint as checkpoint
        import sepsim.cli as cli
        import sepsim.data as data
        import sepsim.dynamics as dynamics
        import sepsim.env as env
        import sepsim.evaluation as evaluation
        import sepsim.heads as heads
        import sepsim.nn.layers as layers
        import sepsim.nn.optim as optim
        import sepsim.nn.tensor as tensor
        import sepsim.nn.training as training
        import sepsim.vae as vae

        self.tracer = Tracer()
        self.replayed: set = set()
        self.builds: Counter = Counter()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sepsim" or n.startswith("sepsim.")]
        t = self.tracer
        fn = lambda f, name, hook=None: t.patch_function(f, modules, name, hook)  # noqa: E731

        fn(training.fit, "nn.fit", self._on_fit)
        fn(agent.train_agent, "agent.train_agent")
        t.patch(env.PatientEnv, "step", "env.step")
        t.patch(env.PatientEnv, "reset", "env.reset")
        if not full:
            return
        t.patch(tensor.Tensor, "backward", "nn.backward")
        t.patch(optim.Adam, "step", "nn.adam_step")
        t.patch(layers.LSTMCell, "step", "nn.lstm_step")
        fn(tensor.logsumexp, "nn.logsumexp")
        t.patch(layers.LSTMCell, "step_np", "nn.lstm_step_np", self._on_lstm_np)
        t.patch(layers.MLP, "forward_np", "nn.mlp_forward_np")
        t.patch(dynamics.StateModel, "predict", "dynamics.predict")
        t.patch(dynamics.StateModel, "predict_batch", "dynamics.predict_batch")
        t.patch(dynamics.HistoryWindow, "from_history", "dynamics.from_history",
                self._on_window)
        fn(dynamics.sample_next, "dynamics.sample_next")
        t.patch(heads.BinaryHead, "predict_proba", "heads.predict_proba")
        for cls in (vae.VaeModel, vae.AeModel):
            t.patch(cls, "encode_mean", "vae.encode_mean")
            t.patch(cls, "decode", "vae.decode")
        fn(env.replay_physician, "env.replay_physician", self._on_replay)
        fn(cli._build_env, "env.build", self._on_build)
        fn(agent.td_update, "agent.td_update")
        fn(agent.act, "agent.act")
        t.patch(agent.ReplayBuffer, "sample", "agent.buffer_sample")
        t.patch(agent.QNetwork, "q_values", "agent.q_values")
        fn(agent.policy_histogram, "agent.policy_histogram")
        fn(evaluation.teacher_forced_eval, "evaluation.teacher_forced_eval")
        fn(evaluation.closed_loop_trajectories,
           "evaluation.closed_loop_trajectories")
        fn(evaluation.write_series_csv, "evaluation.write_series_csv")
        fn(checkpoint.load_checkpoint, "checkpoint.load",
           self._bytes("checkpoint.load"))
        fn(checkpoint.save_checkpoint, "checkpoint.save",
           self._bytes("checkpoint.save"))
        fn(data.load_cohort, "data.load_cohort", self._bytes("data.load_cohort"))
        fn(data.prepare_cohorts, "data.prepare_cohorts")
        fn(data.export_cohort, "data.export_cohort")
        fn(cli.run_stage, lambda args, kwargs: f"cli.run_stage.{args[0]}",
           self._on_stage)

    # hooks: each runs after a call that returned normally

    def _on_fit(self, args, kwargs, history):
        rows = _arg(args, kwargs, 3, "train_size")
        self.tracer.counters["fit.row_epochs"] += rows * history.n_epochs

    def _on_lstm_np(self, args, kwargs, result):
        if self.tracer.active("env.step"):
            self.tracer.counters["lstm_np.env_rows"] += args[1].shape[0]
            self.tracer.counters["lstm_np.env_calls"] += 1

    def _on_window(self, args, kwargs, result):
        states, window = args[1], _arg(args, kwargs, 3, "window")
        self.tracer.counters["window.filled"] += min(window, len(states))
        self.tracer.counters["window.rows"] += window

    def _on_replay(self, args, kwargs, result):
        env, episode = args[0], _arg(args, kwargs, 1, "episode")
        self.replayed.add((env.state_model.config.variant, episode.subject_id))

    def _on_build(self, args, kwargs, env):
        self.builds[_arg(args, kwargs, 0, "sim").variant] += 1

    def _on_stage(self, args, kwargs, result):
        counters = self.tracer.counters
        most = max(self.builds.values(), default=0)
        counters["builds.max"] = max(counters["builds.max"], most)
        self.builds.clear()

    def _bytes(self, name: str):
        def hook(args, kwargs, result):
            self.tracer.counters[f"{name}.bytes"] += os.path.getsize(args[0])
        return hook

    # results of one repeat

    def layer_metrics(self, summary: dict) -> tuple[dict, dict]:
        """Per-layer metrics of one traced repeat, and the raw durations
        of the functions that get percentiles."""
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        counters = self.tracer.counters
        out = {}
        for fn in LAYER_FUNCTIONS:
            entry = summary.get(fn, empty)
            for key in ("calls", "total_s", "self_s"):
                out[f"{fn}.{key}"] = entry[key]
            if fn in BYTES_FUNCTIONS:
                out[f"{fn}.bytes"] = counters[f"{fn}.bytes"]
        for stage in STAGES:
            out[f"cli.run_stage.{stage}.total_s"] = summary.get(
                f"cli.run_stage.{stage}", empty)["total_s"]
        replays = summary.get("env.replay_physician", empty)["calls"]
        out["env.replays_per_episode"] = _ratio(replays, len(self.replayed))
        out["dynamics.rows_per_lstm_call"] = _ratio(
            counters["lstm_np.env_rows"], counters["lstm_np.env_calls"])
        out["dynamics.window_fill"] = _ratio(counters["window.filled"],
                                             counters["window.rows"])
        out["env.builds_per_variant"] = counters["builds.max"]
        durations = {fn: summary.get(fn, empty)["durations"]
                     for fn in PERCENTILE_FUNCTIONS}
        return out, durations


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
