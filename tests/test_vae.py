"""Encoder/decoder stack: shapes, losses, reparameterization, checkpoints."""
import numpy as np
import pytest

from sepsim.data import N_FEATURES
from sepsim.nn.layers import init_weight
from sepsim.nn.tensor import Tensor
from sepsim.nn.training import TrainSchedule
from sepsim.vae import (AeModel, LATENT_DIM, VaeModel, load_encoder, train_ae,
                        train_vae, vae_loss_graph)


# (layer, fan_in, fan_out) of each kind's stack, in the order the layers
# draw their weights; checkpoints store the tensors under these names
_H1, _H2 = 40, 35
_LAYOUT = {
    "vae": [("enc1", N_FEATURES, _H1), ("enc2", _H1, _H2),
            ("mu_head", _H2, LATENT_DIM), ("log_sigma_head", _H2, LATENT_DIM),
            ("dec1", LATENT_DIM, _H2), ("dec2", _H2, _H1),
            ("dec_out", _H1, N_FEATURES)],
    "ae": [("enc1", N_FEATURES, _H1), ("enc2", _H1, _H2),
           ("bottleneck", _H2, LATENT_DIM),
           ("dec1", LATENT_DIM, _H2), ("dec2", _H2, _H1),
           ("dec_out", _H1, N_FEATURES)],
}


@pytest.mark.parametrize("cls", [VaeModel, AeModel])
@pytest.mark.parametrize("seed", [0, 7])
def test_stack_layout_names_order_and_weight_draws(cls, seed):
    layout = _LAYOUT[cls.model_kind]
    model = cls(rng=np.random.default_rng(seed))
    named = model.named_parameters()
    assert [name for name, _ in named] == [
        f"{layer}.{p}" for layer, _, _ in layout for p in ("W", "b")]
    params = dict(named)
    draws = np.random.default_rng(seed)
    for layer, fan_in, fan_out in layout:
        expected = init_weight(draws, fan_in, (fan_in, fan_out))
        assert params[f"{layer}.W"].data.tobytes() == expected.tobytes(), layer
        assert params[f"{layer}.b"].data.tobytes() == np.zeros(fan_out).tobytes()


def test_latent_width_contract(rng):
    model = VaeModel(rng=rng)
    mu, log_sigma = model.encode_graph(Tensor(np.zeros((3, N_FEATURES))))
    assert mu.shape == (3, LATENT_DIM)
    assert log_sigma.shape == (3, LATENT_DIM)
    assert model.encode_mean(np.zeros((3, N_FEATURES))).shape == (3, LATENT_DIM)
    recon = model.decode(np.zeros((3, LATENT_DIM)))
    assert recon.shape == (3, N_FEATURES)


def test_encode_mean_is_eps_zero_path(rng):
    x = rng.normal(size=(4, N_FEATURES))
    vae = VaeModel(rng=rng)
    mu, _ = vae.encode_graph(Tensor(x))
    np.testing.assert_array_equal(vae.encode_mean(x), mu.data)
    np.testing.assert_array_equal(vae.encode_mean(x[0]),
                                  vae.encode_graph(Tensor(x[:1]))[0].data[0])
    ae = AeModel(rng=rng)
    np.testing.assert_array_equal(ae.encode_mean(x), ae.encode_graph(Tensor(x)).data)


def test_vae_loss_graph_matches_numpy_eval(rng):
    model = VaeModel(rng=rng)
    x = rng.normal(size=(6, N_FEATURES))
    eps = rng.normal(size=(6, LATENT_DIM))
    total, recon, kl = vae_loss_graph(model, x, eps)
    # beta defaults to 0: total == recon
    assert total.item() == recon.item()
    assert kl.item() > 0


def test_beta_weights_kl(rng):
    model = VaeModel(beta=0.5, rng=rng)
    x = rng.normal(size=(5, N_FEATURES))
    eps = np.zeros((5, LATENT_DIM))
    total, recon, kl = vae_loss_graph(model, x, eps)
    assert abs(total.item() - (recon.item() + 0.5 * kl.item())) < 1e-12


def test_training_beats_mean_baseline(rng):
    X = rng.normal(size=(600, N_FEATURES)) @ rng.normal(size=(N_FEATURES, N_FEATURES)) * 0.3
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    train, val = X[:500], X[500:]
    model, history = train_vae(train, val,
                               TrainSchedule(max_epochs=4, patience=4, seed=0))
    recon_mse = float(np.mean((model.reconstruct(val) - val) ** 2))
    baseline = float(np.mean((val - train.mean(axis=0)) ** 2))
    assert recon_mse < baseline
    assert history.n_epochs <= 4


def test_checkpoint_round_trip_exact(tmp_path, rng):
    for cls, name in ((VaeModel, "v.json"), (AeModel, "a.json")):
        model = cls(rng=np.random.default_rng(8))
        x = np.random.default_rng(1).normal(size=(3, N_FEATURES))
        before = model.reconstruct(x)
        path = tmp_path / name
        model.save(path)
        back = load_encoder(path)
        np.testing.assert_array_equal(back.reconstruct(x), before)
        np.testing.assert_array_equal(back.encode_mean(x), model.encode_mean(x))


def test_load_encoder_dispatches_on_kind(tmp_path, rng):
    vae = VaeModel(rng=rng)
    path = tmp_path / "enc.json"
    vae.save(path)
    assert isinstance(load_encoder(path), VaeModel)
    ae = AeModel(rng=rng)
    ae.save(path)
    assert isinstance(load_encoder(path), AeModel)


def test_load_encoder_parses_the_checkpoint_once(tmp_path, rng, monkeypatch):
    from sepsim import checkpoint

    calls = []
    real = checkpoint.load_checkpoint

    def counting(path, *args, **kwargs):
        calls.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "load_checkpoint", counting)
    for cls in (VaeModel, AeModel):
        path = tmp_path / f"{cls.model_kind}.json"
        cls(rng=rng).save(path)
        calls.clear()
        assert isinstance(load_encoder(path), cls)
        assert calls == [path]


def test_train_vae_deterministic(rng):
    X = np.random.default_rng(3).normal(size=(200, N_FEATURES))
    schedule = TrainSchedule(max_epochs=2, patience=2, seed=5)
    m1, h1 = train_vae(X[:160], X[160:], schedule)
    m2, h2 = train_vae(X[:160], X[160:], schedule)
    assert ([r.val_loss for r in h1.records]
            == [r.val_loss for r in h2.records])
    for k, v in m1.state_arrays().items():
        np.testing.assert_array_equal(v, m2.state_arrays()[k])


@pytest.mark.parametrize("kind", [VaeModel, AeModel])
def test_decode_of_one_row_is_a_batch_of_one(kind):
    model = kind(rng=np.random.default_rng(3))
    z = np.random.default_rng(4).normal(size=LATENT_DIM)
    assert model.decode(z).tobytes() == model.decode(z[None])[0].tobytes()
    bad = z.copy()
    bad[7] = np.nan
    with pytest.raises(ValueError) as single:
        model.decode(bad)
    with pytest.raises(ValueError) as batch:
        model.decode(bad[None])
    assert str(single.value) == str(batch.value) == "non-finite values in latent"
