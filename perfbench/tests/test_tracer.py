"""Tests of the benchmark's tracer and of the sepsim layer probe.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bootstrap  # noqa: E402

bootstrap.use_checkout_source()

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from layers import LayerProbe, per_layer_names  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer, self_times  # noqa: E402


class TickClock:
    """perf_counter stand-in that advances by one on every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_times_on_a_synthetic_tree():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["a.child", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0],
             ["other_root", 11.0, 12.5, -1]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_wrapped_calls_nest_and_self_time_adds_up(monkeypatch):
    monkeypatch.setattr(tracer_mod.time, "perf_counter", TickClock())
    t = Tracer()

    def leaf(x):
        return x + 1

    leaf_w = t.wrap(leaf, "leaf")

    def middle(x):
        return leaf_w(x) * leaf_w(x)

    middle_w = t.wrap(middle, "middle")
    top_w = t.wrap(lambda x: middle_w(x) + leaf_w(x), "top")

    assert top_w(2) == 12
    by_name = [s[NAME] for s in t.spans]
    assert by_name == ["top", "middle", "leaf", "leaf", "leaf"]
    assert [s[PARENT] for s in t.spans] == [-1, 0, 1, 1, 0]
    summary = t.summary()
    # each span reads the clock once at start and once at end
    assert summary["leaf"]["calls"] == 3
    assert summary["leaf"]["total_s"] == 3.0
    assert summary["middle"]["total_s"] == 5.0
    assert summary["middle"]["self_s"] == 3.0
    assert summary["top"]["total_s"] == 9.0
    assert summary["top"]["self_s"] == 9.0 - 5.0 - 1.0
    total_self = sum(e["self_s"] for e in summary.values())
    assert total_self == t.spans[0][END] - t.spans[0][START]


def test_reentrant_name_counts_outermost_total_once(monkeypatch):
    monkeypatch.setattr(tracer_mod.time, "perf_counter", TickClock())
    t = Tracer()

    def countdown(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = t.wrap(countdown, "countdown")
    assert wrapped(2) == 2
    entry = t.summary()["countdown"]
    assert entry["calls"] == 3
    assert entry["total_s"] == t.spans[0][END] - t.spans[0][START]
    assert entry["self_s"] == entry["total_s"]


def test_span_closes_when_the_call_raises():
    t = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap(boom, "boom")()
    assert not t.active("boom")
    assert t.spans[0][END] >= t.spans[0][START]


def _sepsim_bindings() -> dict:
    """(owner, attr) -> object for every sepsim module and class attribute."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "sepsim" and not name.startswith("sepsim."):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    seen[(f"{name}.{attr}", cattr)] = cvalue
    return seen


def test_probe_patches_every_binding_and_restores_them():
    import sepsim.cli as cli
    import sepsim.dynamics as dynamics
    import sepsim.env as env
    import sepsim.evaluation as evaluation
    import sepsim.nn.losses as losses
    import sepsim.nn.tensor as tensor

    before = _sepsim_bindings()
    replay, sample_next = env.replay_physician, dynamics.sample_next
    lse = tensor.logsumexp
    from_history = vars(dynamics.HistoryWindow)["from_history"]
    probe = LayerProbe(full=True)
    try:
        # names bound by `from x import f` are patched where they are looked up
        assert cli.replay_physician is not replay
        assert evaluation.replay_physician is not replay
        assert env.sample_next is not sample_next
        assert losses.logsumexp is tensor.logsumexp is not lse
        assert isinstance(vars(dynamics.HistoryWindow)["from_history"], classmethod)
    finally:
        probe.tracer.restore()
    after = _sepsim_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert vars(dynamics.HistoryWindow)["from_history"] is from_history


TINY = workloads.Sizes(episodes=20, vae_epochs=1, state_epochs=1, head_epochs=1,
                       dqn_steps=100, eval_episodes=2, policy_episodes=2,
                       rollout_episodes=2)


def _run_group(group: str, prep: Path, out: Path, conf: Path, full: bool) -> dict:
    probe = LayerProbe(full=full)
    try:
        for stage in workloads.group_stages(group, TINY, prep, out):
            stage.write_config(conf)
            assert workloads.run_stage(stage, conf, 5) is None, stage.label
        layer = probe.layer_metrics(probe.tracer.summary())[0] if full else None
    finally:
        probe.tracer.restore()
    return layer


def test_traced_outputs_fingerprint_equals_untraced(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prep, conf = Path("prep"), Path("conf")
    conf.mkdir()
    workloads.make_cohort(5, TINY, prep)
    for group in ("fit", "agent"):
        _run_group(group, prep, prep, conf, full=False)
    fingerprints = {}
    for group in ("fit", "agent", "sim"):
        out = Path(group)   # one path: manifests hash configs that name it
        for full in (False, True):
            shutil.rmtree(out, ignore_errors=True)
            layer = _run_group(group, prep, out, conf, full)
            fingerprints[full] = checks.fingerprint(checks.file_hashes(out))
            if full:
                assert set(layer) <= set(per_layer_names())
        assert fingerprints[True] == fingerprints[False], group
    # the last traced group is sim: the probe saw eval's duplicate replay
    assert layer["env.replays_per_episode"] == 2.0
    assert layer["dynamics.rows_per_lstm_call"] == 1.0
    assert layer["env.builds_per_variant"] == 3
    assert 0.0 < layer["dynamics.window_fill"] <= 1.0
    assert layer["nn.backward.calls"] == 0
