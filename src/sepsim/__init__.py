"""World-model toolkit for episodic patient trajectories.

Learns compact dynamics from recorded (state, action) sequences via a
variational autoencoder and a mixture-density recurrent network, wraps the
learned models in a step/reset simulator with configurable rewards, trains
a DQN policy against it, and evaluates simulated rollouts against truth.
"""
from .data import (ACTION_COUNT, Cohort, CsvSchema, N_DOSE_BINS, N_FEATURES,
                   NormalizationStats, Outcome, PatientEpisode,
                   SyntheticDynamicsSpec, action_intensity,
                   compute_normalization, decode_action, encode_action,
                   export_cohort, generate_synthetic_cohort, load_cohort,
                   normalize_cohort, prepare_cohorts, split_cohort)
from .vae import AeModel, VaeModel, load_encoder, train_ae, train_vae
from .dynamics import (HistoryWindow, StateModel, StateModelConfig, VARIANTS,
                       build_training_sequences, sample_next,
                       train_state_model)
from .heads import BinaryHead, train_heads
from .env import (PatientEnv, RewardSpec, SimConfig, StepResult,
                  replay_physician, rollout, shaped_reward)
from .agent import (DqnConfig, QNetwork, ReplayBuffer, policy_histogram,
                    train_agent)
from .evaluation import (NtmReport, TrajectoryMatrix,
                         build_trajectory_matrix,
                         compare_policy_distributions, episode_return,
                         normalized_trajectory_mean, teacher_forced_eval,
                         trajectory_matrices)

__version__ = "0.1.0"

__all__ = [
    "ACTION_COUNT", "AeModel", "BinaryHead", "Cohort", "CsvSchema",
    "DqnConfig", "HistoryWindow", "N_DOSE_BINS", "N_FEATURES",
    "NormalizationStats", "NtmReport", "Outcome", "PatientEnv",
    "PatientEpisode", "QNetwork", "ReplayBuffer", "RewardSpec", "SimConfig",
    "StateModel", "StateModelConfig", "StepResult", "SyntheticDynamicsSpec",
    "TrajectoryMatrix", "VARIANTS", "VaeModel",
    "action_intensity", "build_trajectory_matrix",
    "build_training_sequences", "compare_policy_distributions",
    "compute_normalization", "decode_action", "encode_action",
    "episode_return", "export_cohort", "generate_synthetic_cohort",
    "load_cohort", "load_encoder", "normalize_cohort",
    "normalized_trajectory_mean", "policy_histogram", "prepare_cohorts",
    "replay_physician", "rollout", "sample_next", "shaped_reward",
    "split_cohort", "teacher_forced_eval", "train_ae", "train_agent",
    "train_heads", "train_state_model", "train_vae", "trajectory_matrices",
    "__version__",
]
