"""Transition model: windowing, mixture head, sampling, training, variants."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepsim.data import (ACTION_COUNT, Cohort, N_FEATURES, Outcome,
                         PatientEpisode)
from sepsim.dynamics import (MIN_TEMPERATURE, HistoryWindow, StateModel,
                             StateModelConfig, VARIANTS, build_training_sequences, one_hot_actions,
                             sample_next, train_on_sequences)
from sepsim.nn.losses import MixtureParams
from sepsim.nn.tensor import logsumexp_np
from sepsim.nn.training import TrainSchedule


def test_variant_catalog():
    assert VARIANTS == ("rnn", "ae_rnn", "vae_rnn", "mdn_rnn", "vae_mdn_rnn")
    assert StateModelConfig(variant="rnn").resolved_state_dim == N_FEATURES
    assert StateModelConfig(variant="vae_rnn").resolved_state_dim == 30
    assert not StateModelConfig(variant="mdn_rnn").uses_encoder
    assert StateModelConfig(variant="mdn_rnn").uses_mdn


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError):
        StateModelConfig(variant="transformer")


def test_one_hot_layout():
    oh = one_hot_actions(np.array([0, 3, 24]))
    assert oh.shape == (3, ACTION_COUNT)
    assert oh[1, 3] == 1.0 and oh[1].sum() == 1.0


def test_window_front_padding():
    states = np.arange(6, dtype=float).reshape(3, 2)
    actions = np.array([1, 2, 3])
    win = HistoryWindow.from_history(states, actions, window=5)
    assert win.states.shape == (5, 2)
    np.testing.assert_array_equal(win.states[:2], np.zeros((2, 2)))
    np.testing.assert_array_equal(win.states[2:], states)
    np.testing.assert_array_equal(win.actions[:2].sum(axis=1), np.zeros(2))
    assert win.actions[2, 1] == 1.0


def test_window_keeps_most_recent():
    states = np.arange(20, dtype=float).reshape(10, 2)
    actions = np.arange(10) % ACTION_COUNT
    win = HistoryWindow.from_history(states, actions, window=4)
    np.testing.assert_array_equal(win.states, states[-4:])


def test_windows_never_cross_episodes(rng):
    # two constant-valued episodes; any window mixing them would show both values
    eps = []
    for val, subject in ((1.0, "a"), (2.0, "b")):
        states = np.full((5, N_FEATURES), val)
        eps.append(PatientEpisode(subject, states,
                                  np.zeros(5, dtype=int), Outcome.RELEASE))
    cohort = Cohort(tuple(eps), tuple(f"f_{i}" for i in range(N_FEATURES)))
    data = build_training_sequences(cohort, window=3)
    assert data.n_rows == 8  # 4 transitions per episode
    window_states, _ = data.windows()
    for i in range(data.n_rows):
        vals = np.unique(window_states[i])
        vals = vals[vals != 0.0]  # padding
        assert len(vals) == 1, "window mixed states from two episodes"
        assert data.subjects[i] in ("a", "b")


def test_length_one_episodes_rejected(rng):
    ep = PatientEpisode("solo", rng.normal(size=(1, N_FEATURES)),
                        np.zeros(1, dtype=int), Outcome.DEATH)
    cohort = Cohort((ep,), tuple(f"f_{i}" for i in range(N_FEATURES)))
    with pytest.raises(ValueError, match="no transitions"):
        build_training_sequences(cohort, window=3)


@settings(deadline=None, max_examples=60)
@given(window=st.integers(1, 12),
       lengths=st.lists(st.integers(1, 15), min_size=1, max_size=4),
       as_cohort=st.booleans(), seed=st.integers(0, 2**16))
def test_training_windows_equal_history_windows(window, lengths, as_cohort,
                                                seed):
    """Row t of an episode is from_history over steps 0..t, its target is
    step t+1, for the Cohort form and the (states, actions) pair form."""
    gen = np.random.default_rng(seed)
    dim = N_FEATURES if as_cohort else 3
    episodes = [(gen.normal(size=(n, dim)), gen.integers(0, ACTION_COUNT, size=n))
                for n in lengths]
    if as_cohort:
        names = [f"s-{i}" for i in range(len(episodes))]
        source = Cohort(tuple(PatientEpisode(name, states, actions, Outcome.RELEASE)
                              for name, (states, actions) in zip(names, episodes)),
                        tuple(f"f_{i}" for i in range(N_FEATURES)))
    else:
        names = [f"ep-{i}" for i in range(len(episodes))]
        source = episodes
    if max(lengths) == 1:
        with pytest.raises(ValueError, match="no transitions"):
            build_training_sequences(source, window)
        return
    data = build_training_sequences(source, window)
    wants, row = [], 0
    for name, (states, actions) in zip(names, episodes):
        for t in range(len(states) - 1):
            wants.append(HistoryWindow.from_history(states[:t + 1],
                                                    actions[:t + 1], window))
            assert data.targets[row].tobytes() == states[t + 1].tobytes()
            assert data.subjects[row] == name
            row += 1
    assert row == data.n_rows
    # every window, in order, and a shuffled draw as a training batch takes it
    order = gen.permutation(data.n_rows)
    for idx, rows in ((slice(None), range(data.n_rows)), (order, order),
                      (order[:3], order[:3])):
        window_states, window_actions = data.windows(idx)
        assert window_states.shape == (len(rows), window, dim)
        for got_states, got_actions, i in zip(window_states, window_actions, rows):
            assert got_states.tobytes() == wants[i].states.tobytes()
            assert got_actions.tobytes() == wants[i].actions.tobytes()


@settings(deadline=None, max_examples=30)
@given(window=st.integers(1, 12),
       lengths=st.lists(st.integers(1, 15), min_size=1, max_size=6))
def test_training_sequences_hold_each_row_once(window, lengths):
    """Each transition's step row is stored once, behind window-1 padding
    rows per episode that has a transition, whatever the window."""
    if max(lengths) == 1:
        return
    episodes = [(np.zeros((n, 2)), np.zeros(n, dtype=int)) for n in lengths]
    data = build_training_sequences(episodes, window)
    with_transition = sum(n > 1 for n in lengths)
    n_rows = data.n_rows + (window - 1) * with_transition
    assert data.states.shape == (n_rows, 2)
    assert data.actions.shape == (n_rows, ACTION_COUNT)
    assert data.starts.shape == (data.n_rows,)


def test_pair_form_checks_actions():
    states = np.zeros((3, 2))
    with pytest.raises(ValueError, match="out of range"):
        build_training_sequences([(states, np.array([0, ACTION_COUNT, 1]))], 2)
    with pytest.raises(ValueError, match="differ in length"):
        build_training_sequences([(states, np.array([0, 1]))], 2)


def test_zeroed_head_gives_uniform_unit_mixture(rng):
    config = StateModelConfig(variant="mdn_rnn", window=3, rnn_hidden=8,
                              n_mixtures=4, state_dim=2)
    model = StateModel(config, rng=rng)
    model.head.W.data[:] = 0.0
    model.head.b.data[:] = 0.0
    win = HistoryWindow(np.zeros((3, 2)), np.zeros((3, ACTION_COUNT)))
    pred = model.predict(win)
    assert isinstance(pred, MixtureParams)
    np.testing.assert_allclose(pred.weights, np.full(4, 0.25), rtol=1e-12)
    np.testing.assert_allclose(pred.stds, np.ones((4, 2)), rtol=1e-12)


def test_point_variant_returns_array(rng):
    config = StateModelConfig(variant="rnn", window=3, rnn_hidden=8,
                              state_dim=2)
    model = StateModel(config, rng=rng)
    win = HistoryWindow(rng.normal(size=(3, 2)),
                        one_hot_actions(np.array([0, 1, 2])))
    pred = model.predict(win)
    assert isinstance(pred, np.ndarray)
    assert pred.shape == (2,)


def test_sample_next_tiny_temperature_collapses(rng):
    params = MixtureParams(np.array([0.999, 0.001]),
                           np.array([[5.0], [-5.0]]),
                           np.array([[1.0], [1.0]]))
    draws = np.array([sample_next(params, 1e-9, np.random.default_rng(i))[0]
                      for i in range(50)])
    np.testing.assert_allclose(draws, 5.0, atol=1e-3)


def sample_next_through_choice(params, temperature, rng):
    """sample_next with the component drawn by Generator.choice."""
    with np.errstate(divide="ignore"):
        scaled = np.log(params.weights) / temperature
    probs = np.exp(scaled - logsumexp_np(scaled))
    probs = probs / probs.sum()
    k = int(rng.choice(params.weights.size, p=probs))
    noise = rng.normal(size=params.dim)
    return params.means[k] + params.stds[k] * np.sqrt(temperature) * noise


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=8).filter(any),
       st.sampled_from([1.0, 0.5, 2.0, 1e-3]), st.integers(0, 2**32 - 1))
def test_sample_next_draws_as_generator_choice(counts, temperature, seed):
    """Zero weights, ties and K=1 included: the same component (each has
    its own mean), the same noise and the same generator state after."""
    k = len(counts)
    params = MixtureParams(np.array(counts) / sum(counts),
                           10.0 * np.arange(k)[:, None] + np.zeros((k, 2)),
                           np.ones((k, 2)))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_next(params, temperature, ours)
    want = sample_next_through_choice(params, temperature, theirs)
    assert got.tobytes() == want.tobytes()
    assert ours.random() == theirs.random()


def test_sample_next_rejects_nan_probabilities():
    # a NaN weight makes the softmax NaN; MixtureParams refuses one, so the
    # mixture skips its checks. (At any temperature sample_next accepts, a
    # simplex's log-weights scale to a finite maximum.)
    params = MixtureParams._checked(np.array([np.nan, 0.5]), np.zeros((2, 1)),
                                    np.ones((2, 1)))
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="NaN or negative"):
        sample_next(params, 1.0, np.random.default_rng(0))


def test_sample_next_refuses_an_infinite_temperature():
    params = MixtureParams(np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match=r"^temperature must be finite, got inf$"):
        sample_next(params, np.inf, np.random.default_rng(0))


def test_sample_next_refuses_temperature_below_the_floor():
    params = MixtureParams(np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match=r"^temperature must be >= 1e-306, "
                                         r"got 2\.2250738585072014e-308$"):
        sample_next(params, sys.float_info.min, np.random.default_rng(0))


@pytest.mark.parametrize("k", [2, 55, 100_000])
def test_sample_next_draws_at_the_smallest_temperature(k):
    """At MIN_TEMPERATURE the draw collapses onto the heaviest component,
    for mixtures of many components too: at sys.float_info.min, 55 or more
    equal weights overflow to -inf and the draw raises."""
    weights = np.full(k, 1.0 / k)
    weights[-1] += 1e-9
    weights /= weights.sum()
    means = np.zeros((k, 1))
    means[-1] = 5.0
    params = MixtureParams(weights, means, np.ones((k, 1)))
    draw = sample_next(params, MIN_TEMPERATURE, np.random.default_rng(0))
    assert draw.tolist() == [5.0]


def test_sample_next_rejects_bad_temperature(rng):
    params = MixtureParams(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError):
        sample_next(params, 0.0, rng)


def test_sample_next_rejects_nan_temperature(rng):
    params = MixtureParams(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError, match="temperature"):
        sample_next(params, float("nan"), rng)


def _toy_sequences(window, width):
    episodes = [(np.zeros((4, width)), np.zeros(4, dtype=int))] * 2
    return build_training_sequences(episodes, window)


@pytest.mark.parametrize("train, val, message", [
    ((2, 2), (3, 2), "training sequences have window 2, the config has window 3"),
    ((3, 2), (2, 2), "validation sequences have window 2, the config has window 3"),
    ((3, 3), (3, 2), "training sequences have state width 3, the config has 2"),
    ((3, 2), (3, 3), "validation sequences have state width 3, the config has 2"),
], ids=["train-window", "val-window", "train-width", "val-width"])
def test_training_refuses_sequences_the_config_cannot_run(train, val, message):
    """Sequences of another window or state width than the config's are
    refused before training starts, so no model is saved with a window it
    was not trained on."""
    config = StateModelConfig(variant="rnn", window=3, rnn_hidden=4, state_dim=2)
    with pytest.raises(ValueError, match=message):
        train_on_sequences(config, _toy_sequences(*train), _toy_sequences(*val),
                           TrainSchedule(max_epochs=1))


def test_mdn_beats_point_rnn_on_bimodal_toy(rng):
    """Alternating +/-1 sequences: the point model averages to ~0, the
    mixture model can commit to either branch."""
    episodes = []
    gen = np.random.default_rng(4)
    for i in range(40):
        sign = 1.0 if i % 2 == 0 else -1.0
        states = np.full((8, 1), sign)
        states[0] = 0.0  # shared ambiguous start
        actions = np.zeros(8, dtype=int)
        episodes.append((states, actions))
    data = build_training_sequences(episodes, window=3)

    point_cfg = StateModelConfig(variant="rnn", window=3, rnn_hidden=8,
                                 state_dim=1)
    schedule = TrainSchedule(max_epochs=30, patience=30, batch_size=16, seed=0)
    point, _ = train_on_sequences(point_cfg, data, data, schedule,
                                  learning_rate=3e-3)
    window_states, window_actions = data.windows()
    first_rows = np.all(window_states[:, -1, :] == 0.0, axis=1)
    preds = point.predict_batch(window_states[first_rows],
                                window_actions[first_rows])
    assert abs(float(np.mean(preds))) < 0.3  # regresses to the mean

    mdn_cfg = StateModelConfig(variant="mdn_rnn", window=3, rnn_hidden=8,
                               n_mixtures=2, state_dim=1)
    mdn, _ = train_on_sequences(mdn_cfg, data, data, schedule,
                                learning_rate=3e-3)
    params = mdn.predict_batch(window_states[first_rows][:1],
                               window_actions[first_rows][:1])[0]
    draws = np.array([sample_next(params, 1.0, np.random.default_rng(i))[0]
                      for i in range(100)])
    assert np.mean(np.abs(draws) > 0.5) > 0.6


def test_save_load_predictions_identical(tmp_path, rng):
    for variant in ("rnn", "mdn_rnn"):
        config = StateModelConfig(variant=variant, window=4, rnn_hidden=8,
                                  n_mixtures=3, state_dim=3)
        model = StateModel(config, rng=np.random.default_rng(2))
        ws = rng.normal(size=(5, 4, 3))
        wa = one_hot_actions(rng.integers(0, ACTION_COUNT, size=(5, 4)).ravel())
        wa = wa.reshape(5, 4, ACTION_COUNT)
        path = tmp_path / f"{variant}.json"
        model.save(path)
        back = StateModel.load(path)
        a = model.predict_batch(ws, wa)
        b = back.predict_batch(ws, wa)
        if variant == "rnn":
            np.testing.assert_array_equal(a, b)
        else:
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa.weights, pb.weights)
                np.testing.assert_array_equal(pa.means, pb.means)
                np.testing.assert_array_equal(pa.stds, pb.stds)


def test_predict_validates_window_shape(rng):
    config = StateModelConfig(variant="rnn", window=4, rnn_hidden=8,
                              state_dim=3)
    model = StateModel(config, rng=rng)
    with pytest.raises(ValueError):
        model.predict(HistoryWindow(np.zeros((3, 3)),
                                    np.zeros((3, ACTION_COUNT))))
