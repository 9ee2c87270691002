"""Network engine tests: forward/backward correctness, Adam, scaling."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl.nnet import (AdamState, NnetError, Scaler, adam_update,
                            load_model, make_mlp, mlp_backward, mlp_forward,
                            save_model, train_minibatch)


def finite_difference_grads(model, x, grad_out, eps=1e-6):
    """Central-difference gradient of sum(out * grad_out) w.r.t. params;
    the weights and biases are views into the model's `flat` buffer, so
    a write to one moves the model."""
    params = [*model.weights, *model.biases]
    grads = []
    for k, p in enumerate(params):
        gp = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = float(np.sum(mlp_forward(model, x, scaled=False) * grad_out))
            p[idx] = orig - eps
            dn = float(np.sum(mlp_forward(model, x, scaled=False) * grad_out))
            p[idx] = orig
            gp[idx] = (up - dn) / (2.0 * eps)
            it.iternext()
        grads.append(gp)
    return grads


@pytest.mark.parametrize("sizes", [[2, 4, 1], [3, 5, 5, 2], [4, 8, 8, 8, 3]])
def test_backward_matches_finite_differences(sizes):
    rng = np.random.default_rng(sum(sizes))
    model = make_mlp(sizes, rng)
    x = rng.uniform(-1.0, 1.0, size=(6, sizes[0]))
    grad_out = rng.standard_normal((6, sizes[-1]))
    _, cache = mlp_forward(model, x, scaled=False, with_cache=True)
    analytic = mlp_backward(model, cache, grad_out)
    numeric = finite_difference_grads(model, x, grad_out)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-6)
        assert np.max(np.abs(a - n) / denom) < 1e-4


def test_forward_single_vector_matches_batch():
    rng = np.random.default_rng(0)
    model = make_mlp([3, 6, 2], rng)
    x = rng.uniform(0.0, 1.0, 3)
    single = mlp_forward(model, x)
    batch = mlp_forward(model, x[None, :])
    assert np.allclose(single, batch[0])


def test_forward_dimension_mismatch():
    model = make_mlp([3, 4, 1], np.random.default_rng(0))
    with pytest.raises(NnetError):
        mlp_forward(model, np.zeros(5))


def test_uncached_forward_holds_two_layers_at_most():
    # 700 rows through three 128-wide layers; keeping every layer until
    # the return reached about 3.3 layers
    model = make_mlp([14, 128, 128, 128, 5], np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(0.0, 1.0, (700, 14))
    y, cache = mlp_forward(model, x, with_cache=True)
    tracemalloc.start()
    try:
        assert mlp_forward(model, x).tobytes() == y.tobytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * cache[1].nbytes


def test_glorot_bounds():
    rng = np.random.default_rng(1)
    model = make_mlp([10, 20, 5], rng)
    for w, (n_in, n_out) in zip(model.weights, [(10, 20), (20, 5)]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        assert np.all(np.abs(w) <= bound)
    for b in model.biases:
        assert np.all(b == 0.0)


def test_scaler_round_trip():
    sc = Scaler(lo=np.array([0.0, -1.0]), hi=np.array([2.0, 3.0]))
    v = np.array([[1.5, 0.5], [0.1, -0.9]])
    assert np.max(np.abs(sc.unscale(sc.scale(v)) - v)) < 1e-12


def test_scaler_rejects_bad_bounds():
    with pytest.raises(NnetError):
        Scaler(lo=np.array([1.0]), hi=np.array([1.0]))


def test_adam_first_step_is_signed_lr():
    # with bias correction the first step is lr * sign(g) up to eps
    p = np.array([1.0, -2.0])
    g = np.array([0.3, -0.7])
    state = AdamState.for_params(p)
    out = adam_update(p, g, state, lr=0.01)
    step = out - p
    assert np.allclose(step, -0.01 * np.sign(g), atol=1e-6)


def test_adam_loss_scale_sign_invariance():
    rng = np.random.default_rng(7)
    p = rng.standard_normal(5)
    g = rng.standard_normal(5)
    s1 = AdamState.for_params(p)
    s2 = AdamState.for_params(p)
    step1 = adam_update(p, g, s1, 0.01) - p
    step2 = adam_update(p, 10.0 * g, s2, 0.01) - p
    assert np.array_equal(np.sign(step1), np.sign(step2))
    assert np.max(np.abs(step1 - step2) / np.abs(step1)) < 0.01


def test_train_minibatch_learns_linear_map():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(400, 2))
    y = x @ np.array([[1.0], [-0.5]]) + 0.2
    model = make_mlp([2, 32, 1], np.random.default_rng(2))
    history = train_minibatch(model, x, y, [(60, 1e-2), (60, 1e-3)],
                              batch_size=64, seed=0, record_every=50)
    assert history, "expected recorded losses"
    assert history[-1] < history[0]
    pred = mlp_forward(model, x)
    assert float(np.mean((pred - y) ** 2)) < 1e-3


def test_train_minibatch_empty_dataset():
    model = make_mlp([2, 4, 1], np.random.default_rng(0))
    with pytest.raises(NnetError):
        train_minibatch(model, np.empty((0, 2)), np.empty((0, 1)),
                        [(1, 1e-3)], 8, 0)


def test_train_minibatch_deterministic():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, size=(100, 2))
    y = np.sum(x, axis=1, keepdims=True)
    m1 = make_mlp([2, 8, 1], np.random.default_rng(4))
    m2 = make_mlp([2, 8, 1], np.random.default_rng(4))
    train_minibatch(m1, x, y, [(10, 1e-3)], 16, seed=3)
    train_minibatch(m2, x, y, [(10, 1e-3)], 16, seed=3)
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)


def test_model_file_round_trip(tmp_path):
    model = make_mlp([3, 7, 2], np.random.default_rng(6),
                     input_scaler=Scaler(np.zeros(3), np.full(3, 2.0)))
    path = tmp_path / "model.npz"
    save_model(path, model)
    back = load_model(path)
    x = np.random.default_rng(1).uniform(0.0, 2.0, size=(5, 3))
    assert np.array_equal(mlp_forward(back, x), mlp_forward(model, x))
    assert back.sizes == model.sizes


@given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_forward_finite_on_finite_input(v):
    model = make_mlp([3, 8, 2], np.random.default_rng(8))
    out = mlp_forward(model, np.array(v), scaled=False)
    assert np.all(np.isfinite(out))
