"""Finite-difference gradient checker, including a sabotage control."""
import numpy as np

from sepsim.nn.gradcheck import check_gradients
from sepsim.nn.layers import MLP
from sepsim.nn.losses import mse
from sepsim.nn.tensor import Parameter, Tensor, tanh


def test_clean_mlp_passes(rng):
    net = MLP((4, 6, 2), hidden_activation="tanh", rng=rng)
    x = rng.normal(size=(8, 4))
    y = rng.normal(size=(8, 2))
    report = check_gradients(net.named_parameters(),
                             lambda: mse(net(Tensor(x)), y),
                             probe_count=40, rng=np.random.default_rng(1))
    assert report.max_rel_error < 1e-6
    assert len(report.probes) == 40


def test_probe_metadata_names_parameters(rng):
    net = MLP((3, 4, 1), rng=rng)
    x = rng.normal(size=(5, 3))
    report = check_gradients(net.named_parameters(),
                             lambda: net(Tensor(x)).sum(),
                             probe_count=10, rng=np.random.default_rng(2))
    names = {p.param_name for p in report.probes}
    assert names <= {n for n, _ in net.named_parameters()}
    worst = report.worst()
    assert worst.rel_error == report.max_rel_error


def test_corrupted_gradient_is_detected(rng):
    """Negative control: a wrong backward must blow past the tolerance."""
    p = Parameter(rng.normal(size=(3,)))

    honest = check_gradients([("p", p)], lambda: tanh(p).sum(), probe_count=3,
                             rng=np.random.default_rng(3))
    assert honest.max_rel_error < 1e-6

    shift = {"called": 0}

    def inconsistent_loss():
        # analytic backward sees tanh(p); numeric re-evaluations see tanh(2p)
        shift["called"] += 1
        if shift["called"] == 1:
            return tanh(p).sum()
        return tanh(p * 2.0).sum()

    report = check_gradients([("p", p)], inconsistent_loss, probe_count=3,
                             rng=np.random.default_rng(3))
    assert report.max_rel_error > 1e-2


def test_accepts_bare_parameter_list(rng):
    p = Parameter(rng.normal(size=(4,)))
    report = check_gradients([p], lambda: (p * p).sum(), probe_count=4,
                             rng=np.random.default_rng(0))
    assert report.max_rel_error < 1e-7
