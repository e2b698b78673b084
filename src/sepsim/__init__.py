"""World-model toolkit for episodic patient trajectories.

Learns compact dynamics from recorded (state, action) sequences via a
variational autoencoder and a mixture-density recurrent network, wraps the
learned models in a step/reset simulator with configurable rewards, trains
a DQN policy against it, and evaluates simulated rollouts against truth.

The package root exports nothing; import from the submodules.
"""
