"""Network construction and forward passes: deterministic initialisation,
scaled-Gaussian weight statistics, the global skip connection, and gradient
flow through shared parameters."""

import math

import numpy as np
import pytest

from conftest import rand_tensor, weighted_sum
from taylor_restore.autodiff import Graph, ShapeError, backward
from taylor_restore.networks import (
    DerivativeSpec,
    MappingSpec,
    forward_derivative,
    forward_mapping,
    init_params,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        MappingSpec(kernel=4)
    with pytest.raises(ValueError):
        MappingSpec(blocks=-1)
    with pytest.raises(ValueError):
        DerivativeSpec(kernel=2)
    for spec in (MappingSpec, DerivativeSpec):
        with pytest.raises(ValueError, match="channel counts"):
            spec(channels=0)


def test_init_is_deterministic_and_seed_sensitive():
    spec = MappingSpec(channels=6, blocks=2)
    a = dict(init_params(spec, 42).items())
    b = dict(init_params(spec, 42).items())
    c = dict(init_params(spec, 43).items())
    assert list(a) == list(b) == list(c)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[name].data, c[name].data) for name in a)


def test_biases_start_at_zero():
    params = init_params(MappingSpec(channels=5, blocks=1), 7)
    for name, tensor in params.items():
        if name.endswith(".bias"):
            assert float(np.abs(tensor.data).max()) == 0.0


def test_weight_scale_matches_fan_in():
    # a 34->34 3x3 conv holds 10404 weights: enough for a tight std estimate
    spec = MappingSpec(channels=34, blocks=1)
    params = init_params(spec, 3)
    weight = params["mapping.block0.conv1.weight"].data
    fan_in = 34 * 9
    target = math.sqrt(2.0 / fan_in)
    assert abs(float(weight.std()) - target) / target < 0.05
    assert abs(float(weight.mean())) < target * 0.05


def test_zero_mapping_is_identity():
    # all-zero convolutions leave only the global skip connection
    spec = MappingSpec(channels=4, blocks=1)
    params = init_params(spec, 1)
    for tensor in params.tensors():
        tensor.data[...] = 0.0
    y = rand_tensor(9, (2, 3, 9, 13), 0.0, 1.0)
    out = forward_mapping(params, spec, y)
    assert np.array_equal(out.data, y.data)


def test_zero_derivative_net_outputs_zero():
    spec = DerivativeSpec(channels=4)
    params = init_params(spec, 1)
    for tensor in params.tensors():
        tensor.data[...] = 0.0
    y = rand_tensor(10, (1, 3, 8, 8), 0.0, 1.0)
    g = rand_tensor(11, (1, 3, 8, 8), 0.0, 1.0)
    out = forward_derivative(params, spec, g, y)
    assert out.shape == g.shape
    assert float(np.abs(out.data).max()) == 0.0


def test_forward_shapes_preserved_on_rectangles():
    mspec = MappingSpec(channels=4, blocks=2, kernel=5)
    dspec = DerivativeSpec(channels=4, kernel=5)
    y = rand_tensor(12, (2, 3, 10, 6), 0.0, 1.0)
    f = forward_mapping(init_params(mspec, 1), mspec, y)
    assert f.shape == y.shape
    g = forward_derivative(init_params(dspec, 2), dspec, f, y)
    assert g.shape == y.shape


def test_forward_mapping_rejects_wrong_channels():
    spec = MappingSpec(channels=4, blocks=1)
    y = rand_tensor(13, (1, 4, 8, 8))
    with pytest.raises(ShapeError):
        forward_mapping(init_params(spec, 1), spec, y)


def test_forward_derivative_rejects_mismatched_pair():
    spec = DerivativeSpec(channels=4)
    params = init_params(spec, 1)
    y = rand_tensor(14, (1, 3, 8, 8))
    g = rand_tensor(15, (1, 3, 6, 6))
    with pytest.raises(ShapeError):
        forward_derivative(params, spec, g, y)


def test_param_set_interface():
    params = init_params(MappingSpec(channels=4, blocks=0), 5)
    names = [name for name, _ in params.items()]
    assert names == sorted(names)
    assert "mapping.conv_in.weight" in names
    assert len(params.tensors()) == 4  # conv_in + conv_out, each weight + bias
    for tensor in params.tensors():
        tensor.grad = np.zeros(tensor.shape)
    params.zero_grads()
    assert all(t.grad is None for t in params.tensors())


def test_shared_weight_gradients_sum_over_stages():
    # unrolling the same network twice must accumulate both stages' gradients
    # into the single shared parameter set
    spec = DerivativeSpec(channels=5)
    y = rand_tensor(17, (1, 3, 8, 8), 0.0, 1.0)
    g0 = rand_tensor(18, (1, 3, 8, 8), 0.0, 1.0)

    upstream = rand_tensor(19, (1, 3, 8, 8)).data
    shared = init_params(spec, 3)
    with Graph() as graph:
        s1 = forward_derivative(shared, spec, g0, y)
        s2 = forward_derivative(shared, spec, s1, y)
        loss = weighted_sum(graph, s2, upstream)
    backward(loss, graph)
    shared_grads = {name: tensor.grad.copy() for name, tensor in shared.items()}

    copy_a = init_params(spec, 3)  # same values, independent storage
    copy_b = init_params(spec, 3)
    with Graph() as graph:
        s1 = forward_derivative(copy_a, spec, g0, y)
        s2 = forward_derivative(copy_b, spec, s1, y)
        loss = weighted_sum(graph, s2, upstream)
    backward(loss, graph)

    for name, _ in shared.items():
        ga = copy_a[name].grad
        gb = copy_b[name].grad
        assert gb is not None
        total = gb if ga is None else ga + gb
        assert np.allclose(shared_grads[name], total, atol=1e-10, rtol=1e-10)


def test_derivative_param_count_is_order_independent():
    # one shared derivative network regardless of expansion depth
    spec = DerivativeSpec(channels=4)
    assert len(init_params(spec, 1).tensors()) == 4  # conv1/conv2, weight+bias each
    weight = init_params(spec, 1)["derivative.conv1.weight"]
    assert weight.shape == (4, 6, 3, 3)  # stacked [state, input] pair on input
