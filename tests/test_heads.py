"""Termination and outcome heads: feature layout, row building, training."""
import numpy as np
import pytest

from sepsim.data import Cohort, N_FEATURES, Outcome, PatientEpisode
from sepsim.dynamics import one_hot_actions
from sepsim.heads import (BinaryHead, HEAD_KINDS, build_head_rows,
                          train_heads)
from sepsim.nn.training import TrainSchedule
from sepsim.vae import AeModel


def test_feature_vector_layout(rng):
    head = BinaryHead("termination", state_dim=3, step_norm=50.0, rng=rng)
    x = head._features(np.array([1.0, 2.0, 3.0]), 7, 25)
    assert x.shape == (1, 3 + 25 + 1)
    np.testing.assert_array_equal(x[0, :3], [1.0, 2.0, 3.0])
    assert x[0, 3 + 7] == 1.0 and x[0, 3:28].sum() == 1.0
    assert x[0, -1] == 25 / 50.0


def test_features_equal_concatenated_one_hot(rng):
    head = BinaryHead("termination", state_dim=5, step_norm=13.0, rng=rng)
    states = rng.normal(size=(40, 5))
    actions = rng.integers(0, 25, size=40)
    steps = rng.integers(0, 30, size=40)
    want = np.concatenate([states, one_hot_actions(actions),
                           (steps / 13.0)[:, None]], axis=1)
    assert head._features(states, actions, steps).tobytes() == want.tobytes()


def test_features_reject_bad_actions_and_lengths(rng):
    head = BinaryHead("termination", state_dim=2, rng=rng)
    for action in (-1, 25):
        with pytest.raises(ValueError, match="action codes out of range"):
            head._features(np.zeros(2), action, 0)
    with pytest.raises(ValueError, match="actions and steps"):
        head._features(np.zeros((3, 2)), 4, [0, 1, 2])


_GOOD_STATE = np.linspace(-2.0, 3.0, 4)


@pytest.mark.parametrize("state, action, step", [
    (_GOOD_STATE, -1, 3), (_GOOD_STATE, 25, 3), (_GOOD_STATE, 4, -1),
    (np.zeros(5), 4, 3), (np.zeros(3), 4, 3)],
    ids=["action-1", "action25", "step-1", "state5", "state3"])
def test_single_row_refuses_what_a_batch_of_one_refuses(state, action, step):
    head = BinaryHead("termination", state_dim=4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError) as single:
        head.predict_proba(state, action, step)
    with pytest.raises(ValueError) as batch:
        head.predict_proba_batch(state[None], [action], [step])
    assert str(single.value) == str(batch.value)


@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, -1.0, np.float64(np.nan)])
def test_both_paths_refuse_a_step_that_is_not_finite_and_nonnegative(step):
    head = BinaryHead("outcome", state_dim=4, rng=np.random.default_rng(0))
    message = "^step numbers must be finite and >= 0$"
    with pytest.raises(ValueError, match=message):
        head.predict_proba(_GOOD_STATE, 3, step)
    with pytest.raises(ValueError, match=message):
        head.predict_proba_batch(_GOOD_STATE[None], [3], [step])


def test_single_row_equals_a_batch_of_one(rng):
    head = BinaryHead("outcome", state_dim=4, step_norm=7.0, rng=rng)
    for p in head.parameters():
        p.data[:] = rng.normal(size=p.data.shape)
    for state, action, step in [(rng.normal(size=4), 0, 0),
                                (rng.normal(size=4), np.int64(24), 40),
                                (rng.normal(size=4), 13, np.int64(3)),
                                (rng.normal(size=4), 7, 2.5),
                                (list(rng.normal(size=4)), 7, np.float64(9.0)),
                                (rng.normal(size=(1, 4)), [3], [11])]:
        single = head.predict_proba(state, action, step)
        batch = head.predict_proba_batch(np.atleast_2d(state), np.atleast_1d(action),
                                         np.atleast_1d(step))
        assert type(single) is float and batch.shape == (1,)
        assert single.hex() == float(batch[0]).hex()


def test_zero_network_predicts_half(rng):
    head = BinaryHead("outcome", state_dim=4, rng=rng)
    for p in head.parameters():
        p.data[:] = 0.0
    assert head.predict_proba(np.zeros(4), 0, 0) == pytest.approx(0.5)
    assert head.predict_proba(np.ones(4) * 9, 24, 40) == pytest.approx(0.5)


def test_kind_validation():
    with pytest.raises(ValueError):
        BinaryHead("severity", state_dim=4)
    with pytest.raises(ValueError):
        BinaryHead("termination", state_dim=4, step_norm=0.0)


def _toy_cohort():
    eps = []
    rng = np.random.default_rng(5)
    for i, (length, outcome) in enumerate([(3, Outcome.DEATH),
                                           (5, Outcome.RELEASE),
                                           (2, Outcome.DEATH)]):
        states = rng.normal(size=(length, N_FEATURES))
        actions = rng.integers(0, 25, size=length)
        eps.append(PatientEpisode(f"p{i}", states, actions, outcome))
    return Cohort(tuple(eps), tuple(f"f_{i}" for i in range(N_FEATURES)))


def test_build_head_rows_counts_and_labels():
    term, outc = build_head_rows(_toy_cohort())
    assert term.n_rows == 3 + 5 + 2
    assert outc.n_rows == 3
    # one terminal row per episode
    assert term.labels.sum() == 3.0
    # terminal label sits on the last step of each episode
    np.testing.assert_array_equal(term.labels[[2, 7, 9]], np.ones(3))
    np.testing.assert_array_equal(term.steps[:3], [0, 1, 2])
    np.testing.assert_array_equal(outc.labels, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(outc.steps, [2, 4, 1])


def test_build_head_rows_matches_terminal_states():
    cohort = _toy_cohort()
    term, outc = build_head_rows(cohort)
    np.testing.assert_array_equal(outc.states[0], cohort.episodes[0].states[-1])
    np.testing.assert_array_equal(outc.actions,
                                  [ep.actions[-1] for ep in cohort.episodes])


def test_build_head_rows_equal_per_step_rows():
    """Every column, dtype included, equals a walk over each episode's steps,
    with and without an encoder, length-1 episodes included."""
    rng = np.random.default_rng(6)
    cohort = Cohort(tuple(
        PatientEpisode(f"p{i}", rng.normal(size=(n, N_FEATURES)),
                       rng.integers(0, 25, size=n), outcome)
        for i, (n, outcome) in enumerate([(4, Outcome.DEATH), (1, Outcome.RELEASE),
                                          (3, Outcome.RELEASE), (1, Outcome.DEATH)])),
        tuple(f"f_{i}" for i in range(N_FEATURES)))
    for encoder in (None, AeModel(rng=np.random.default_rng(0))):
        term, outc = build_head_rows(cohort, encoder)
        want_term, want_outc = [], []
        for ep in cohort.episodes:
            seq = ep.states if encoder is None else encoder.encode_mean(ep.states)
            last = ep.length - 1
            for t in range(ep.length):
                want_term.append((seq[t], ep.actions[t], t, 1.0 if t == last else 0.0))
            want_outc.append((seq[last], ep.actions[last], last,
                              1.0 if ep.outcome == Outcome.DEATH else 0.0))
        for rows, want in ((term, want_term), (outc, want_outc)):
            got = (rows.states, rows.actions, rows.steps, rows.labels)
            for column, expected in zip(got, map(np.array, zip(*want))):
                assert column.dtype == expected.dtype
                assert column.tobytes() == expected.tobytes()


def test_empty_cohort_rejected():
    with pytest.raises(ValueError):
        build_head_rows(Cohort((), tuple(f"f_{i}" for i in range(N_FEATURES))))


def test_heads_learn_separable_rule():
    """Termination fires when feature 0 crosses 1; outcome follows feature 1."""
    rng = np.random.default_rng(11)
    eps = []
    for i in range(120):
        length = int(rng.integers(2, 6))
        states = rng.normal(scale=0.3, size=(length, N_FEATURES))
        states[:-1, 0] = -2.0
        states[-1, 0] = 2.0  # last step is announced by feature 0
        die = i % 2 == 0
        states[-1, 1] = 2.0 if die else -2.0
        actions = rng.integers(0, 25, size=length)
        eps.append(PatientEpisode(f"p{i}", states, actions,
                                  Outcome.DEATH if die else Outcome.RELEASE))
    cohort = Cohort(tuple(eps), tuple(f"f_{i}" for i in range(N_FEATURES)))
    schedule = TrainSchedule(max_epochs=20, patience=20, batch_size=64, seed=0)
    result = train_heads(cohort, schedule)

    term, outc = build_head_rows(cohort)
    term_pred = result.termination.predict_proba_batch(
        term.states, term.actions, term.steps) > 0.5
    outc_pred = result.outcome.predict_proba_batch(
        outc.states, outc.actions, outc.steps) > 0.5
    assert np.mean(term_pred == term.labels.astype(bool)) > 0.95
    assert np.mean(outc_pred == outc.labels.astype(bool)) > 0.95
    assert result.terminal_fraction == 120 / term.n_rows
    assert result.death_fraction == pytest.approx(0.5)


def test_save_load_round_trip(tmp_path, rng):
    for kind in HEAD_KINDS:
        head = BinaryHead(kind, state_dim=6, step_norm=25.0,
                          rng=np.random.default_rng(3))
        path = tmp_path / f"{kind}.json"
        head.save(path)
        back = BinaryHead.load(path, expect_kind=kind)
        states = rng.normal(size=(4, 6))
        actions = rng.integers(0, 25, size=4)
        steps = np.arange(4)
        np.testing.assert_array_equal(
            head.predict_proba_batch(states, actions, steps),
            back.predict_proba_batch(states, actions, steps))
        assert back.step_norm == 25.0


def test_load_rejects_wrong_kind(tmp_path, rng):
    head = BinaryHead("termination", state_dim=6, rng=rng)
    path = tmp_path / "head.json"
    head.save(path)
    with pytest.raises(ValueError, match="expected"):
        BinaryHead.load(path, expect_kind="outcome")


def test_negative_step_rejected(rng):
    head = BinaryHead("termination", state_dim=3, rng=rng)
    with pytest.raises(ValueError):
        head.predict_proba(np.zeros(3), 0, -1)
