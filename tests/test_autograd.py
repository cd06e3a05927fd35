"""Tests for the autograd engine: gradient checks, modules, optimizers, losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Adam,
    Linear,
    Parameter,
    SGD,
    Sequential,
    Tensor,
    binary_cross_entropy_with_logits,
    cross_entropy,
    dropout,
    leaky_relu,
    log_softmax,
    no_grad,
    relu,
    sigmoid,
    softmax,
    tanh,
)


def _numerical_gradient(function, tensor, epsilon=1e-6):
    gradient = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    flat_gradient = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function().item()
        flat[index] = original - epsilon
        minus = function().item()
        flat[index] = original
        flat_gradient[index] = (plus - minus) / (2 * epsilon)
    return gradient


def _check_gradients(build, *tensors, tolerance=1e-5):
    output = build()
    output.backward()
    for tensor in tensors:
        numerical = _numerical_gradient(build, tensor)
        assert np.allclose(tensor.grad, numerical, atol=tolerance), (
            f"analytic {tensor.grad} vs numerical {numerical}")


def test_gradients_arithmetic_chain():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    _check_gradients(lambda: ((a * b + a - b / 2.0) ** 2).sum(), a, b)


def test_gradients_matmul_and_activations():
    rng = np.random.default_rng(1)
    W = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    _check_gradients(lambda: (relu(x @ W) + sigmoid(x @ W)).sum(), W, x)


def test_gradients_reductions_and_broadcasting():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    _check_gradients(lambda: ((a + bias).mean(axis=0) ** 2).sum(), a, bias)


def test_gradients_softmax_cross_entropy():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    targets = np.array([0, 1, 2, 1, 0, 2])
    _check_gradients(lambda: cross_entropy(logits, targets), logits)


def test_gradients_concatenate_and_getitem():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    _check_gradients(lambda: (Tensor.concatenate([a, b], axis=0)[1:3] ** 2).sum(), a, b)


def test_gradients_max_and_exp_log():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(3, 3)) + 3.0, requires_grad=True)
    _check_gradients(lambda: (a.log() + a.exp() * 1e-2).max(axis=1).sum(), a)


def test_backward_requires_scalar_or_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(RuntimeError):
        (a * 2).backward()
    with pytest.raises(RuntimeError):
        Tensor(np.ones(2)).backward()


def test_no_grad_disables_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (a * 2).sum()
    assert not out.requires_grad


def test_no_grad_is_per_thread():
    """Two threads' ``no_grad()`` blocks overlap: the first block's exit
    must not turn grad back on inside the second, and once both have
    exited grad is still on for everyone else."""
    import threading

    a = Tensor(np.ones(3), requires_grad=True)
    first_inside = threading.Event()
    second_inside = threading.Event()
    first_exited = threading.Event()
    observed = {}

    def first():
        with no_grad():
            first_inside.set()
            second_inside.wait(timeout=10.0)
        first_exited.set()

    def second():
        first_inside.wait(timeout=10.0)
        with no_grad():
            second_inside.set()
            first_exited.wait(timeout=10.0)
            observed["inside"] = (a * 2).requires_grad

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert observed == {"inside": False}
    assert (a * 2).requires_grad


def test_gradient_accumulation_and_zero_grad():
    a = Tensor(np.ones(3), requires_grad=True)
    (a * 2).sum().backward()
    (a * 2).sum().backward()
    assert np.allclose(a.grad, 4.0)
    a.zero_grad()
    assert a.grad is None


def test_activation_values():
    x = Tensor(np.array([-2.0, 0.0, 2.0]))
    assert np.allclose(relu(x).numpy(), [0.0, 0.0, 2.0])
    assert np.allclose(leaky_relu(x, 0.1).numpy(), [-0.2, 0.0, 2.0])
    assert np.allclose(sigmoid(Tensor(np.array([0.0]))).numpy(), [0.5])
    assert np.allclose(tanh(Tensor(np.array([0.0]))).numpy(), [0.0])
    probabilities = softmax(Tensor(np.array([[1.0, 1.0, 1.0]]))).numpy()
    assert np.allclose(probabilities, 1.0 / 3.0)
    assert np.allclose(np.exp(log_softmax(Tensor(np.array([[1.0, 2.0]]))).numpy()).sum(), 1.0)


def test_bce_with_logits_matches_reference():
    logits = Tensor(np.array([0.0, 2.0, -2.0]), requires_grad=True)
    targets = np.array([0.0, 1.0, 0.0])
    loss = binary_cross_entropy_with_logits(logits, targets)
    reference = np.mean([np.log(2.0),
                         np.log1p(np.exp(-2.0)),
                         np.log1p(np.exp(-2.0))])
    assert loss.item() == pytest.approx(reference, rel=1e-6)


def test_dropout_behaviour():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((100, 10)))
    dropped = dropout(x, 0.5, rng, training=True)
    kept_fraction = (dropped.numpy() != 0).mean()
    assert 0.3 < kept_fraction < 0.7
    assert np.allclose(dropout(x, 0.5, rng, training=False).numpy(), 1.0)


def test_linear_module_shapes_and_parameters():
    layer = Linear(4, 3)
    out = layer(Tensor(np.ones((5, 4))))
    assert out.shape == (5, 3)
    assert layer.num_parameters() == 4 * 3 + 3
    no_bias = Linear(4, 3, bias=False)
    assert no_bias.num_parameters() == 12


def test_module_parameter_discovery_and_modes():
    model = Sequential(Linear(4, 8), Linear(8, 2))
    assert len(model.parameters()) == 4
    model.eval()
    assert not model.training
    model.train()
    assert model.training


def test_state_dict_roundtrip():
    model = Sequential(Linear(3, 3))
    state = model.state_dict()
    for parameter in model.parameters():
        parameter.data += 1.0
    model.load_state_dict(state)
    assert np.allclose(model.parameters()[0].data, state["param_0"])
    with pytest.raises(ValueError):
        model.load_state_dict({"param_0": np.zeros(1)})


@pytest.mark.parametrize("optimizer_factory", [
    lambda params: SGD(params, learning_rate=0.1),
    lambda params: SGD(params, learning_rate=0.05, momentum=0.9),
    lambda params: Adam(params, learning_rate=0.1),
])
def test_optimizers_minimize_quadratic(optimizer_factory):
    parameter = Parameter(np.array([5.0, -3.0]))
    optimizer = optimizer_factory([parameter])
    for _ in range(200):
        loss = (parameter * parameter).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    assert np.all(np.abs(parameter.data) < 1e-2)


def test_weight_decay_shrinks_parameters():
    parameter = Parameter(np.array([1.0]))
    optimizer = Adam([parameter], learning_rate=0.01, weight_decay=1.0)
    for _ in range(50):
        loss = (parameter * 0.0).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    assert abs(parameter.data[0]) < 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_broadcast_gradients_have_input_shape(rows, columns, batch):
    a = Tensor(np.ones((rows, columns)), requires_grad=True)
    b = Tensor(np.ones((1, columns)), requires_grad=True)
    ((a + b) * 2).sum().backward()
    assert a.grad.shape == a.data.shape
    assert b.grad.shape == b.data.shape
    assert np.allclose(b.grad, 2.0 * rows)
