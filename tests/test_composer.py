"""Series composition: hand-unrolled recurrence values with stub networks,
factorial damping, the order-0 identity, and the combined loss."""

import math

import numpy as np
import pytest

from conftest import rand_tensor
from taylor_restore.autodiff import Graph, Tensor, backward
from taylor_restore.composer import (
    G0_FROM_INPUT,
    G0_FROM_MAPPING,
    MAX_ORDER,
    VARIANT_CONCAT_ONLY,
    VARIANT_WITH_K_RESIDUAL,
    ComposerConfig,
    ComposerTrace,
    assemble_output,
    compose_orders,
    framework_loss_terms,
)
from taylor_restore.networks import (
    DerivativeSpec,
    MappingSpec,
    forward_derivative,
    forward_mapping,
    init_params,
)

SHAPE = (1, 2, 4, 4)


def constant_mapping(value):
    return lambda y: Tensor(np.full(y.shape, value))


def constant_derivative(value):
    return lambda g, y: Tensor(np.full(g.shape, value))


def test_config_validation():
    with pytest.raises(ValueError):
        ComposerConfig(order=-1)
    with pytest.raises(ValueError):
        ComposerConfig(order=MAX_ORDER + 1)
    with pytest.raises(ValueError):
        ComposerConfig(variant="bogus")
    with pytest.raises(ValueError):
        ComposerConfig(g0="bogus")
    with pytest.raises(ValueError):
        ComposerConfig(lam=-0.5)
    ComposerConfig(order=MAX_ORDER)  # top of the supported range is valid


def test_order_zero_output_is_the_mapping_itself():
    spec = MappingSpec(channels=4, blocks=1)
    params = init_params(spec, 3)
    y = rand_tensor(1, (1, 3, 4, 4), 0.0, 1.0)  # the mapping expects RGB input
    cfg = ComposerConfig(order=0)
    trace = compose_orders(lambda t: forward_mapping(params, spec, t),
                           constant_derivative(1.0), y, cfg)
    assert trace.output is trace.f_out  # same object, not a copy
    assert trace.g == []
    direct = forward_mapping(params, spec, y)
    assert trace.output.data.tobytes() == direct.data.tobytes()


def test_zero_derivative_net_changes_nothing():
    y = rand_tensor(2, SHAPE, 0.0, 1.0)
    f_value = 0.375
    cfg = ComposerConfig(order=4, variant=VARIANT_WITH_K_RESIDUAL)
    trace = compose_orders(constant_mapping(f_value), constant_derivative(0.0), y, cfg)
    assert np.array_equal(trace.output.data, np.full(SHAPE, f_value))
    for g in trace.g:
        assert float(np.abs(g.data).max()) == 0.0


def test_residual_recurrence_hand_unrolled_values():
    # constant stub G == c with the k-weighted residual recurrence:
    #   g1 = c, g2 = c + 1*g1 = 2c, g3 = c + 2*g2 = 5c
    # output = f + c/1! + 2c/2! + 5c/3! = f + (17/6) c
    c = 0.25
    f_value = 0.6
    y = rand_tensor(3, SHAPE, 0.0, 1.0)
    cfg = ComposerConfig(order=3, variant=VARIANT_WITH_K_RESIDUAL)
    trace = compose_orders(constant_mapping(f_value), constant_derivative(c), y, cfg)
    for g, expected in zip(trace.g, [c, 2 * c, 5 * c]):
        assert float(np.abs(g.data - expected).max()) <= 1e-12
    expected_out = f_value + (17.0 / 6.0) * c
    assert float(np.abs(trace.output.data - expected_out).max()) <= 1e-12


def test_concat_only_recurrence_keeps_terms_constant():
    # without the k-weighted residual a constant stub gives g_k == c for all k,
    # so successive contributions are c/k!: strict factorial damping
    c = 0.5
    y = rand_tensor(4, SHAPE, 0.0, 1.0)
    outputs = []
    for order in range(0, 7):
        cfg = ComposerConfig(order=order, variant=VARIANT_CONCAT_ONLY)
        trace = compose_orders(constant_mapping(0.0), constant_derivative(c), y, cfg)
        for g in trace.g:
            assert float(np.abs(g.data - c).max()) == 0.0
        outputs.append(float(trace.output.data[0, 0, 0, 0]))
    increments = [outputs[k] - outputs[k - 1] for k in range(1, 7)]
    for k, inc in enumerate(increments, start=1):
        assert inc == pytest.approx(c / math.factorial(k), abs=1e-15)
    assert all(increments[i] > increments[i + 1] for i in range(len(increments) - 1))


def test_g0_source_selects_the_seed():
    # a pass-through derivative stub exposes what g0 was seeded with
    passthrough = lambda g, y: Tensor(g.data.copy())
    y = rand_tensor(5, SHAPE, 0.0, 1.0)
    f_value = 0.3

    cfg = ComposerConfig(order=1, variant=VARIANT_CONCAT_ONLY, g0=G0_FROM_MAPPING)
    trace = compose_orders(constant_mapping(f_value), passthrough, y, cfg)
    assert np.array_equal(trace.g[0].data, np.full(SHAPE, f_value))

    cfg = ComposerConfig(order=1, variant=VARIANT_CONCAT_ONLY, g0=G0_FROM_INPUT)
    trace = compose_orders(constant_mapping(f_value), passthrough, y, cfg)
    assert np.array_equal(trace.g[0].data, y.data)


def test_assemble_output_empty_series():
    f = rand_tensor(6, SHAPE)
    out = assemble_output(f, [])
    assert out is f


def test_assemble_output_factorial_weights():
    f = Tensor(np.zeros(SHAPE))
    g = [Tensor(np.full(SHAPE, 6.0)) for _ in range(3)]
    out = assemble_output(f, g)
    # 6/1! + 6/2! + 6/3! = 6 + 3 + 1
    assert float(np.abs(out.data - 10.0).max()) <= 1e-12


def test_loss_terms_hand_example():
    # mean |O - x| = 0.2 and mean |f - x| = 0.4 combine to 0.2 + 1.0 * 0.4
    x = Tensor(np.zeros(SHAPE))
    trace = ComposerTrace(f_out=Tensor(np.full(SHAPE, 0.4)), g=[],
                          output=Tensor(np.full(SHAPE, 0.2)))
    cfg = ComposerConfig(order=0, lam=1.0)
    total, loss_output, loss_coarse = framework_loss_terms(trace, x, cfg)
    assert loss_output.item() == pytest.approx(0.2, abs=1e-15)
    assert loss_coarse.item() == pytest.approx(0.4, abs=1e-15)
    assert total.item() == pytest.approx(0.6, abs=1e-12)


def test_loss_lambda_zero_drops_coarse_term():
    x = Tensor(np.zeros(SHAPE))
    trace = ComposerTrace(f_out=Tensor(np.full(SHAPE, 0.8)), g=[],
                          output=Tensor(np.full(SHAPE, 0.2)))
    cfg = ComposerConfig(order=0, lam=0.0)
    total, loss_output, loss_coarse = framework_loss_terms(trace, x, cfg)
    assert total.item() == loss_output.item() == pytest.approx(0.2, abs=1e-15)
    assert loss_coarse.item() == pytest.approx(0.8, abs=1e-15)


def test_perfect_restoration_has_zero_loss():
    x = rand_tensor(7, SHAPE, 0.0, 1.0)
    trace = ComposerTrace(f_out=Tensor(x.data.copy()), g=[],
                          output=Tensor(x.data.copy()))
    assert framework_loss_terms(trace, x, ComposerConfig(order=0))[0].item() == 0.0


@pytest.mark.parametrize("variant", [VARIANT_WITH_K_RESIDUAL, VARIANT_CONCAT_ONLY])
def test_gradients_reach_both_networks(variant):
    # the whole expansion is one differentiable graph: training signal must
    # arrive at every mapping and derivative parameter
    mspec = MappingSpec(channels=4, blocks=1)
    dspec = DerivativeSpec(in_channels=3, channels=4)
    mparams = init_params(mspec, 1)
    dparams = init_params(dspec, 2)
    y = rand_tensor(8, (1, 3, 8, 8), 0.0, 1.0)
    x = rand_tensor(9, (1, 3, 8, 8), 0.0, 1.0)
    cfg = ComposerConfig(order=2, variant=variant)

    with Graph() as graph:
        trace = compose_orders(
            lambda t: forward_mapping(mparams, mspec, t),
            lambda g, t: forward_derivative(dparams, dspec, g, t),
            y, cfg)
        loss = framework_loss_terms(trace, x, cfg)[0]
    backward(loss, graph)

    for params in (mparams, dparams):
        for name, _ in params.items():
            grad = params[name].grad
            assert grad is not None, name
            assert float(np.abs(grad).max()) > 0.0, name
