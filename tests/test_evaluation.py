"""Evaluation: normalized trajectory means, teacher forcing, histograms."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sepsim.checkpoint import float_cells, write_table
from sepsim.data import (ACTION_COUNT, Cohort, N_FEATURES, NormalizationStats,
                         Outcome, PatientEpisode, action_intensity)
from sepsim.dynamics import StateModel, StateModelConfig
from sepsim.env import (REWARD_FORMULATIONS, PatientEnv, RewardSpec,
                        replay_physician, shaped_reward)
from sepsim.evaluation import (NTM_HEADER, HistogramPair, build_trajectory_matrix,
                               closed_loop_trajectories,
                               compare_policy_distributions, episode_return,
                               normalized_trajectory_mean, ntm_rows,
                               teacher_forced_eval, trajectory_matrices,
                               write_histograms_csv, write_series_csv)
from sepsim.heads import BinaryHead


def _col(values):
    return np.asarray(values, dtype=np.float64)[:, None]


class TestTrajectoryMatrix:
    def test_zero_imputation_and_mask(self):
        m = build_trajectory_matrix([_col([1.0]), _col([2.0, 2.0])], "real")
        assert m.values.shape == (2, 2, 1)
        assert m.values[0, 1, 0] == 0.0
        np.testing.assert_array_equal(m.mask,
                                      [[True, False], [True, True]])

    def test_explicit_horizon_extends(self):
        m = build_trajectory_matrix([_col([1.0])], "real", horizon=4)
        assert m.horizon == 4
        with pytest.raises(ValueError):
            build_trajectory_matrix([_col([1.0, 1.0])], "real", horizon=1)

    def test_common_horizon_spans_both_sets(self):
        real, sim = trajectory_matrices([_col([1.0, 1.0, 1.0])],
                                        [_col([2.0])])
        assert real.horizon == sim.horizon == 3

    def test_source_tag_checked(self):
        with pytest.raises(ValueError):
            build_trajectory_matrix([_col([1.0])], "imagined")


class TestNtm:
    def _hand_fixture(self, scale=1.0):
        """Three real episodes of one feature: [1], [2,2], [3,3,3]."""
        real = [_col([1.0]), _col([2.0, 2.0]), _col([3.0, 3.0, 3.0])]
        sim = [v * scale for v in real]
        return trajectory_matrices(real, sim)

    def test_hand_value(self):
        real, sim = self._hand_fixture()
        report = normalized_trajectory_mean(real, sim)
        # grid mean = (1 + 2+2 + 3+3+3) / 9; norm = 1 + 4+4 + 9+9+9 = 36
        expected = (14.0 / 9.0) / 36.0
        assert report.real_ntm[0] == pytest.approx(expected, abs=1e-15)
        assert report.sim_ntm[0] == pytest.approx(expected, abs=1e-15)
        assert report.gaps[0] == 0.0
        assert report.mean_gap == 0.0

    def test_identity_gap_is_zero(self, rng):
        trajs = [rng.normal(size=(int(n), 3)) for n in rng.integers(2, 8, 6)]
        real, sim = trajectory_matrices(trajs, trajs)
        report = normalized_trajectory_mean(real, sim)
        np.testing.assert_array_equal(report.gaps, np.zeros(3))

    def test_linear_in_simulated_values(self):
        real, sim = self._hand_fixture(scale=3.5)
        base_real, base_sim = self._hand_fixture(scale=1.0)
        scaled = normalized_trajectory_mean(real, sim)
        base = normalized_trajectory_mean(base_real, base_sim)
        assert abs(scaled.sim_ntm[0] - 3.5 * base.sim_ntm[0]) < 1e-12
        assert scaled.real_ntm[0] == base.real_ntm[0]

    def test_imputation_leaves_real_norm_alone(self):
        # the same real set against a longer sim set: extra zero-padding
        # on the real side must not change its normalizer
        real_eps = [_col([1.0]), _col([2.0, 2.0]), _col([3.0, 3.0, 3.0])]
        short_r, short_s = trajectory_matrices(real_eps, real_eps)
        long_r, long_s = trajectory_matrices(real_eps,
                                             [_col([1.0] * 9)] * 2)
        assert long_r.horizon == 9
        short = normalized_trajectory_mean(short_r, short_s)
        long = normalized_trajectory_mean(long_r, long_s)
        # mean shrinks (9 vs 3 grid columns) but by exactly the grid ratio,
        # so the norm (denominator) is untouched
        assert long.real_ntm[0] == pytest.approx(short.real_ntm[0] / 3.0,
                                                 abs=1e-15)

    def test_rms_mode(self):
        real, sim = self._hand_fixture()
        report = normalized_trajectory_mean(real, sim, mode="rms")
        expected = (14.0 / 9.0) / np.sqrt(36.0 / 6.0)
        assert report.mode == "rms"
        assert report.real_ntm[0] == pytest.approx(expected, abs=1e-15)

    def test_unknown_mode(self):
        real, sim = self._hand_fixture()
        with pytest.raises(ValueError):
            normalized_trajectory_mean(real, sim, mode="median")

    def test_degenerate_feature_flagged_not_fatal(self):
        real = [np.array([[1.0, 0.0], [2.0, 0.0]])]
        sim = [np.array([[1.0, 5.0], [2.0, 5.0]])]
        r, s = trajectory_matrices(real, sim)
        report = normalized_trajectory_mean(r, s)
        assert report.degenerate.tolist() == [False, True]
        assert np.isnan(report.sim_ntm[1])
        assert np.isfinite(report.mean_gap)

    def test_all_degenerate_mean_gap_raises(self):
        real = [np.zeros((2, 1))]
        sim = [np.ones((2, 1))]
        r, s = trajectory_matrices(real, sim)
        report = normalized_trajectory_mean(r, s)
        with pytest.raises(ValueError):
            report.mean_gap


class _ConstantModel:
    """predict_batch stub returning the same vector for every row."""

    def __init__(self, value: np.ndarray):
        self.value = value

    def predict_batch(self, window_states, window_actions):
        return np.tile(self.value, (window_states.shape[0], 1))


def _tiny_cohort(seed=0, episodes=5, length=6):
    rng = np.random.default_rng(seed)
    eps = []
    for i in range(episodes):
        states = rng.normal(size=(length, N_FEATURES))
        actions = rng.integers(0, 25, size=length)
        eps.append(PatientEpisode(f"p{i}", states, actions, Outcome.RELEASE))
    return Cohort(tuple(eps), tuple(f"f_{i}" for i in range(N_FEATURES)))


class TestTeacherForced:
    def test_mean_baseline_mse_equals_target_variance(self):
        cohort = _tiny_cohort()
        targets = np.concatenate([ep.states[1:] for ep in cohort.episodes])
        model = _ConstantModel(targets.mean(axis=0))
        report = teacher_forced_eval(model, cohort, window=3)
        np.testing.assert_array_equal(report.targets, targets)
        assert report.mse == pytest.approx(float(targets.var(axis=0).mean()),
                                           rel=1e-12)
        assert report.sample_mse is None


class TestClosedLoop:
    def test_equals_physician_replay_on_a_fresh_env(self):
        # mixture sampling and Bernoulli termination both draw from the env's
        # generator, so a second pass matches only from a fresh env
        model = StateModel(StateModelConfig(variant="mdn_rnn", window=3,
                                            rnn_hidden=8, n_mixtures=2),
                           rng=np.random.default_rng(0))
        heads = [BinaryHead(kind, N_FEATURES, rng=np.random.default_rng(i))
                 for i, kind in enumerate(("termination", "outcome"))]
        cohort = _tiny_cohort(episodes=6, length=7)
        env = PatientEnv(model, *heads, cohort.initial_states(), seed=4)
        sims = closed_loop_trajectories(env, cohort)
        replay_env = env.fresh()
        lengths = set()
        for episode, sim in zip(cohort.episodes, sims, strict=True):
            replay = replay_physician(replay_env, episode)
            assert sim.states.tobytes() == replay.states.tobytes()
            assert sim.states[0].tobytes() == episode.states[0].tobytes()
            assert sim.states.shape == (replay.n_steps + 1, N_FEATURES)
            for field in ("actions", "rewards", "dones"):
                assert getattr(sim, field).tobytes() == getattr(replay, field).tobytes()
            lengths.add(replay.n_steps)
        assert len(lengths) > 1   # some episodes end before their actions do


class TestEpisodeReturn:
    def _episode(self, outcome, actions):
        n = len(actions)
        states = np.zeros((n, N_FEATURES))
        return PatientEpisode("p", states, np.array(actions), outcome)

    def test_terminal_only(self):
        spec = RewardSpec()
        assert episode_return(self._episode(Outcome.RELEASE, [0, 0]), spec) == 15.0
        assert episode_return(self._episode(Outcome.DEATH, [0, 0]), spec) == -15.0

    def test_intensity_penalty_counts_every_action(self):
        spec = RewardSpec("terminal_minus_intensity")
        ep = self._episode(Outcome.RELEASE, [24, 24, 0])  # intensities 8, 8, 0
        assert episode_return(ep, spec) == 1000.0 - 16.0

    def test_shaped_uses_transitions(self):
        spec = RewardSpec("sofa_lactate_shaped", sofa_index=0, lactate_index=1)
        ep = self._episode(Outcome.RELEASE, [0, 0, 0])
        states = ep.states.copy()
        states[:, 0] = [2.0, 2.0, 3.0]  # unchanged-positive, then +1
        ep = PatientEpisode("p", states, ep.actions, ep.outcome)
        expected = 15.0 + (-0.025) + (-0.125)
        assert episode_return(ep, spec) == pytest.approx(expected, abs=1e-12)


def _return_as_summed_before(episode, spec, stats):
    """The recorded return as it was summed before `RewardSpec.step_reward`:
    +/-magnitude plus the summed intensity charges, or +/-magnitude and then
    each shaped transition in order."""
    sign = -1.0 if episode.outcome == Outcome.DEATH else 1.0
    total = sign * spec.terminal_magnitude
    if spec.formulation == "terminal_minus_intensity":
        total += float(sum(-action_intensity(int(a)) for a in episode.actions))
    elif spec.formulation == "sofa_lactate_shaped":
        states = episode.states
        if stats is not None:
            states = stats.denormalize(states)
        for t in range(1, states.shape[0]):
            total += shaped_reward(states[t - 1], states[t], spec)
    return total


@settings(max_examples=300, deadline=None)
@given(formulation=st.sampled_from(REWARD_FORMULATIONS),
       magnitude=st.one_of(st.none(), st.floats(0.01, 2000.0)),
       actions=st.lists(st.integers(0, ACTION_COUNT - 1), min_size=1, max_size=60),
       died=st.booleans(), with_stats=st.booleans(), seed=st.integers(0, 2**32 - 1))
# summed step by step from the terminal step, this return is -128.76999999999998
@example(formulation="terminal_minus_intensity", magnitude=7.77,
         actions=[24] * 15 + [1], died=True, with_stats=False, seed=0)
def test_episode_return_equals_the_sum_as_it_was(formulation, magnitude, actions,
                                                  died, with_stats, seed):
    rng = np.random.default_rng(seed)
    spec = RewardSpec(formulation, terminal_magnitude=magnitude, sofa_index=3,
                      lactate_index=7)
    states = rng.normal(size=(len(actions), N_FEATURES))
    # whole SOFA scores, so that some steps leave it unchanged
    states[:, 3] = rng.integers(0, 4, size=len(actions))
    stats = (NormalizationStats(rng.normal(size=N_FEATURES),
                                rng.uniform(0.5, 3.0, size=N_FEATURES))
             if with_stats else None)
    episode = PatientEpisode("p", states, actions,
                             Outcome.DEATH if died else Outcome.RELEASE)
    got = episode_return(episode, spec, stats)
    want = _return_as_summed_before(episode, spec, stats)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class _Rollouts:
    def __init__(self, action_counts, lengths, returns):
        self.action_counts = np.asarray(action_counts)
        self.lengths = np.asarray(lengths)
        self.returns = np.asarray(returns, dtype=np.float64)


class TestPolicyComparison:
    def test_counts_conserved(self):
        cohort = _tiny_cohort(episodes=4, length=5)
        counts = np.zeros(25, dtype=np.int64)
        counts[3] = 7
        counts[12] = 5
        rollouts = _Rollouts(counts, [4, 5, 3], [15.0, -15.0, 15.0])
        comp = compare_policy_distributions(cohort, rollouts)
        assert comp.action_counts_real.sum() == 20  # 4 episodes x 5 actions
        assert comp.action_counts_sim.sum() == 12
        assert comp.lengths.real_counts.sum() == 4
        assert comp.lengths.sim_counts.sum() == 3
        assert comp.returns.real_counts.sum() == 4
        assert comp.returns.sim_counts.sum() == 3

    def test_collapse_flag(self):
        cohort = _tiny_cohort(episodes=4, length=5)
        counts = np.zeros(25, dtype=np.int64)
        counts[0] = 95
        counts[1] = 5
        comp = compare_policy_distributions(
            cohort, _Rollouts(counts, [5], [15.0]))
        assert comp.collapse_sim and not comp.collapse_real

    def test_top_return_lands_in_last_bin(self):
        cohort = _tiny_cohort(episodes=3, length=4)
        rollouts = _Rollouts(np.ones(25), [4, 4], [15.0, 42.0])
        comp = compare_policy_distributions(cohort, rollouts)
        assert comp.returns.sim_counts.sum() == 2

    def test_empty_inputs_rejected(self):
        cohort = _tiny_cohort(episodes=2, length=3)
        with pytest.raises(ValueError):
            compare_policy_distributions(
                cohort, _Rollouts(np.zeros(25), np.array([]), np.array([])))


class TestCsvWriters:
    def test_ntm_csv(self, tmp_path):
        real = [np.array([[1.0, 0.0], [2.0, 0.0]])]
        r, s = trajectory_matrices(real, real)
        report = normalized_trajectory_mean(r, s)
        path = tmp_path / "ntm.csv"
        write_table(path, NTM_HEADER, ntm_rows(report, ["hr", "bp"]))
        lines = path.read_text().splitlines()
        assert lines[0] == "feature,real_ntm,sim_ntm,abs_gap,degenerate"
        assert lines[1].startswith("hr,")
        assert lines[2].endswith(",1")  # degenerate flag

    def test_series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        real_rows = [float_cells(np.arange(6, dtype=float).reshape(3, 2))]
        sim_rows = [float_cells(np.arange(6, dtype=float).reshape(3, 2) + 0.5)]
        write_series_csv(path, "rnn", ["a", "b"], real_rows, sim_rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "variant,episode,feature,t,real,sim"
        assert lines[1] == "rnn,0,a,0,0.0,0.5"
        assert len(lines) == 1 + 3 * 2

    def test_histograms_csv(self, tmp_path):
        cohort = _tiny_cohort(episodes=3, length=4)
        comp = compare_policy_distributions(
            cohort, _Rollouts(np.ones(25), [3, 4], [15.0, 15.0]))
        path = tmp_path / "hist.csv"
        write_histograms_csv(comp, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "family,bin,real,sim"
        families = {line.split(",")[0] for line in lines[1:]}
        assert families == {"action", "length", "return"}
