"""Differentiable array operations: forward values against loop oracles and
hand-worked examples, gradients against hand-derived closed forms."""

import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import conv2d_backward_bruteforce, conv2d_bruteforce, rand_tensor, weighted_sum
from taylor_restore.autodiff import (
    Graph,
    ShapeError,
    Tensor,
    add,
    backward,
    concat_channels,
    conv2d,
    l1_loss,
    relu,
    scale,
)
from taylor_restore.autodiff import ops, tensor


# --- tensor basics ----------------------------------------------------------

def test_tensor_is_float64_contiguous():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2) and t.ndim == 2 and t.size == 4
    assert t.grad is None


def test_item_requires_single_element():
    assert Tensor([2.5]).item() == 2.5
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


def test_zeros_constructor():
    z = Tensor.zeros((2, 3))
    assert z.shape == (2, 3) and float(np.abs(z.data).max()) == 0.0


def test_accumulate_grad_adds():
    t = Tensor([1.0, 2.0])
    t.accumulate_grad(np.array([1.0, 1.0]))
    t.accumulate_grad(np.array([0.5, -1.0]))
    assert t.grad.tolist() == [1.5, 0.0]


# --- convolution ------------------------------------------------------------

def test_conv2d_documented_example():
    # 3x3 ramp 1..9, all-ones 3x3 kernel, zero bias, pad 1:
    # centre sums the whole image (45); the top-left corner sees 1+2+4+5 = 12.
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b, pad=1)
    assert out.shape == (1, 1, 3, 3)
    assert out.data[0, 0, 1, 1] == 45.0
    assert out.data[0, 0, 0, 0] == 12.0


FORWARD_CASES = [
    # C -> C: the kw taps of a kernel row are stacked, one GEMM per kernel row
    dict(x=(1, 1, 5, 5), w=(1, 1, 3, 3), pad=1),
    dict(x=(2, 3, 6, 5), w=(4, 3, 3, 3), pad=1),
    dict(x=(1, 2, 4, 7), w=(3, 2, 1, 1), pad=0),
    dict(x=(1, 2, 5, 6), w=(2, 2, 3, 3), pad=1),
    # thin input (2*Cin <= Cout): the taps are stacked under one GEMM
    dict(x=(2, 3, 7, 6), w=(6, 3, 3, 3), pad=1),
    dict(x=(1, 2, 6, 7), w=(5, 2, 5, 5), pad=2),
    dict(x=(2, 3, 5, 4), w=(8, 3, 1, 1), pad=0),
    # thin output (2*Cout <= Cin): one GEMM over the grid, its row blocks summed shifted
    dict(x=(2, 8, 6, 5), w=(3, 8, 3, 3), pad=1),
    dict(x=(1, 6, 7, 7), w=(2, 6, 5, 5), pad=2),
    dict(x=(2, 4, 4, 5), w=(2, 4, 1, 1), pad=0),
    # C -> C on taller, wider and odd-sized images
    dict(x=(2, 3, 9, 8), w=(4, 3, 5, 5), pad=2),
    dict(x=(1, 4, 8, 11), w=(3, 4, 5, 5), pad=2),
    dict(x=(2, 3, 6, 7), w=(3, 3, 3, 3), pad=1),
    # spans of 10,368 columns, more than one TILE, in each layout
    dict(x=(2, 2, 70, 70), w=(2, 2, 3, 3), pad=1),
    dict(x=(2, 1, 70, 70), w=(2, 1, 3, 3), pad=1),
    dict(x=(2, 2, 70, 70), w=(1, 2, 3, 3), pad=1),
]


@pytest.mark.parametrize("case", FORWARD_CASES)
def test_conv2d_matches_loop_oracle(case):
    x = rand_tensor(1, case["x"])
    w = rand_tensor(2, case["w"])
    b = rand_tensor(3, (case["w"][0],))
    out = conv2d(x, w, b, pad=case["pad"])
    ref = conv2d_bruteforce(x.data, w.data, b.data, case["pad"], 1)
    assert out.shape == ref.shape
    assert np.allclose(out.data, ref, atol=1e-12, rtol=1e-12)


BACKWARD_CASES = [
    # the model's convs: pad = k // 2, batch 2, non-square images
    dict(x=(2, 3, 5, 7), w=(4, 3, 1, 1), pad=0),
    dict(x=(2, 3, 5, 7), w=(4, 3, 3, 3), pad=1),
    dict(x=(2, 2, 7, 6), w=(3, 2, 5, 5), pad=2),
    dict(x=(2, 3, 7, 6), w=(2, 3, 3, 3), pad=1),
    dict(x=(2, 2, 4, 5), w=(3, 2, 3, 3), pad=1),
    # thin input, in the model's shapes (3 -> 8, 6 -> 16) and beyond
    dict(x=(2, 3, 5, 7), w=(8, 3, 3, 3), pad=1),
    dict(x=(2, 6, 6, 5), w=(16, 6, 3, 3), pad=1),
    dict(x=(2, 3, 7, 6), w=(6, 3, 3, 3), pad=1),
    dict(x=(2, 2, 4, 5), w=(4, 2, 3, 3), pad=1),
    dict(x=(2, 2, 7, 6), w=(5, 2, 5, 5), pad=2),
    dict(x=(2, 3, 5, 7), w=(7, 3, 1, 1), pad=0),
    # thin output, in the model's shapes (8 -> 3, 16 -> 3) and beyond
    dict(x=(2, 8, 5, 7), w=(3, 8, 3, 3), pad=1),
    dict(x=(2, 16, 6, 5), w=(3, 16, 3, 3), pad=1),
    dict(x=(2, 6, 7, 6), w=(3, 6, 3, 3), pad=1),
    dict(x=(2, 4, 4, 5), w=(2, 4, 3, 3), pad=1),
    dict(x=(2, 5, 7, 6), w=(2, 5, 5, 5), pad=2),
    dict(x=(2, 7, 5, 7), w=(3, 7, 1, 1), pad=0),
    # grids of 5,208 columns, longer than one dW block, in each layout
    dict(x=(2, 2, 40, 60), w=(3, 2, 3, 3), pad=1),
    dict(x=(2, 1, 40, 60), w=(2, 1, 3, 3), pad=1),
    dict(x=(2, 2, 40, 60), w=(1, 2, 3, 3), pad=1),
    # 3x3 and 5x5 kernels in each layout, on images wider than tall and taller than wide
    dict(x=(2, 2, 5, 7), w=(3, 2, 3, 3), pad=1),
    dict(x=(2, 4, 5, 6), w=(4, 4, 3, 3), pad=1),
    dict(x=(2, 3, 6, 5), w=(8, 3, 3, 3), pad=1),
    dict(x=(2, 2, 6, 7), w=(6, 2, 5, 5), pad=2),
    dict(x=(2, 8, 6, 7), w=(3, 8, 5, 5), pad=2),
    dict(x=(2, 6, 7, 5), w=(2, 6, 5, 5), pad=2),
    # C -> C kernel rows: odd and even heights and widths, a kernel taller than the image,
    # and a 5x5 kernel on a grid of 5,208 columns, longer than one dW block
    dict(x=(2, 3, 9, 8), w=(4, 3, 5, 5), pad=2),
    dict(x=(2, 4, 8, 9), w=(3, 4, 3, 3), pad=1),
    dict(x=(2, 3, 10, 9), w=(3, 3, 5, 5), pad=2),
    dict(x=(2, 3, 9, 10), w=(4, 3, 3, 3), pad=1),
    dict(x=(2, 3, 5, 6), w=(4, 3, 3, 3), pad=1),
    dict(x=(2, 2, 4, 5), w=(3, 2, 5, 5), pad=2),
    dict(x=(2, 2, 40, 60), w=(2, 2, 5, 5), pad=2),
    # spans of 10,368 columns, more than one TILE, in each layout, and one of a single channel
    dict(x=(2, 2, 70, 70), w=(2, 2, 3, 3), pad=1),
    dict(x=(2, 1, 70, 70), w=(2, 1, 3, 3), pad=1),
    dict(x=(2, 2, 70, 70), w=(1, 2, 3, 3), pad=1),
    dict(x=(2, 1, 70, 70), w=(1, 1, 3, 3), pad=1),
]


@pytest.mark.parametrize("case", BACKWARD_CASES)
def test_conv2d_backward_matches_loop_oracle(case):
    x = rand_tensor(30, case["x"])
    w = rand_tensor(31, case["w"])
    b = rand_tensor(32, (case["w"][0],))
    with Graph() as graph:
        out = conv2d(x, w, b, pad=case["pad"])
        upstream = rand_tensor(33, out.shape)
        loss = weighted_sum(graph, out, upstream.data)  # d(loss)/d(out) = upstream
    backward(loss, graph)
    ref_x, ref_w, ref_b = conv2d_backward_bruteforce(
        x.data, w.data, upstream.data, case["pad"], 1)
    assert np.allclose(x.grad, ref_x, atol=1e-12, rtol=1e-12)
    assert np.allclose(w.grad, ref_w, atol=1e-12, rtol=1e-12)
    assert np.allclose(b.grad, ref_b, atol=1e-12, rtol=1e-12)


class PoisonedNumpy:
    """numpy, except that `empty` and `empty_like` hand out NaN-filled arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)

    @staticmethod
    def empty_like(prototype):
        return np.full_like(prototype, np.nan)


@pytest.mark.parametrize("w_shape", [(2, 2, 3, 3), (2, 1, 3, 3), (1, 2, 3, 3)])
def test_tiles_keep_the_bytes_of_one_pass_over_the_span(monkeypatch, w_shape):
    """A span of 10,368 columns runs as two tiles; its output and every gradient have the same
    bytes as with the whole span as one tile, since a tile is two whole dW blocks."""
    cout, cin = w_shape[:2]

    def run():
        x = rand_tensor(80, (2, cin, 70, 70))
        w, b = rand_tensor(81, w_shape), rand_tensor(82, (cout,))
        with Graph() as graph:
            out = conv2d(x, w, b, pad=1)
            loss = weighted_sum(graph, out, rand_tensor(83, out.shape).data)
        backward(loss, graph)
        return [t.tobytes() for t in (out.data, x.grad, w.grad, b.grad)]

    tiled = run()
    monkeypatch.setattr(ops, "TILE", 1 << 30)
    assert run() == tiled


@pytest.mark.parametrize("oracle_test, case", [
    *[(test_conv2d_matches_loop_oracle, case) for case in FORWARD_CASES],
    *[(test_conv2d_backward_matches_loop_oracle, case) for case in BACKWARD_CASES],
])
def test_conv2d_reads_no_unwritten_scratch(monkeypatch, oracle_test, case):
    """conv2d leaves the scratch columns past its last output unwritten: with every
    `np.empty` in `ops` and `tensor` NaN-filled, outputs and gradients still match the oracles."""
    monkeypatch.setattr(ops, "np", PoisonedNumpy())
    monkeypatch.setattr(tensor, "np", PoisonedNumpy())
    oracle_test(case)


@given(h=st.integers(1, 10), w=st.integers(1, 10), k=st.sampled_from([1, 3, 5]))
def test_conv2d_output_shape_formula(h, w, k):
    """A same conv keeps the input's height and width, whatever the kernel and image size."""
    x = rand_tensor(4, (1, 2, h, w))
    wt = rand_tensor(5, (3, 2, k, k))
    b = rand_tensor(6, (3,))
    out = conv2d(x, wt, b, pad=k // 2)
    assert out.shape == (1, 3, h, w)
    ref = conv2d_bruteforce(x.data, wt.data, b.data, k // 2, 1)
    assert np.allclose(out.data, ref, atol=1e-12, rtol=1e-12)


class NumpyUnused:
    def __getattr__(self, name):
        raise AssertionError(f"conv2d used np.{name} before rejecting its shapes")


@pytest.mark.parametrize("x_shape, w_shape, pad, stride", [
    ((1, 2, 6, 6), (3, 2, 3, 3), 1, 2),
    ((1, 2, 6, 6), (3, 2, 3, 3), 0, 1),
    ((1, 2, 6, 6), (3, 2, 3, 3), 2, 1),
    ((1, 2, 6, 6), (3, 2, 3, 5), 1, 1),
    ((1, 2, 6, 6), (3, 2, 2, 2), 1, 1),
    ((1, 2, 0, 6), (3, 2, 3, 3), 1, 1),
])
def test_conv2d_rejects_non_same_convolutions(monkeypatch, x_shape, w_shape, pad, stride):
    """The shapes alone decide: with `np` in `ops` failing on any use, conv2d still raises
    ShapeError, so it rejects the conv before it allocates anything."""
    x, w, b = rand_tensor(7, x_shape), rand_tensor(8, w_shape), rand_tensor(9, (w_shape[0],))
    monkeypatch.setattr(ops, "np", NumpyUnused())
    with pytest.raises(ShapeError):
        conv2d(x, w, b, pad, stride)


def test_tooling_conv2d_keeps_pad_and_stride_positional():
    """perfbench's tracer (_wrap_conv) calls conv2d(x, weight, bias, pad, stride) positionally,
    so pad and stride can only be dropped together with that caller."""
    params = inspect.signature(conv2d).parameters
    assert list(params) == ["x", "weight", "bias", "pad", "stride"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params.values())


def test_conv2d_identity_kernel():
    x = rand_tensor(6, (2, 3, 5, 5))
    w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
    b = Tensor(np.zeros(3))
    out = conv2d(x, w, b)
    assert np.array_equal(out.data, x.data)


def test_conv2d_zero_weight_gives_bias_planes():
    x = rand_tensor(7, (1, 2, 4, 4))
    w = Tensor(np.zeros((2, 2, 3, 3)))
    b = Tensor(np.array([0.25, -1.0]))
    out = conv2d(x, w, b, pad=1)
    assert np.array_equal(out.data[0, 0], np.full((4, 4), 0.25))
    assert np.array_equal(out.data[0, 1], np.full((4, 4), -1.0))


def test_conv2d_rejects_channel_mismatch():
    x = rand_tensor(8, (1, 3, 4, 4))
    w = rand_tensor(9, (2, 4, 3, 3))
    with pytest.raises(ShapeError):
        conv2d(x, w, Tensor(np.zeros(2)), pad=1)


def test_conv2d_forward_is_deterministic():
    x = rand_tensor(10, (2, 3, 8, 8))
    w = rand_tensor(11, (4, 3, 3, 3))
    b = rand_tensor(12, (4,))
    a = conv2d(x, w, b, pad=1).data
    c = conv2d(x, w, b, pad=1).data
    assert a.tobytes() == c.tobytes()


# --- elementwise and reductions ---------------------------------------------

def test_relu_passes_nan_through():
    x = Tensor([np.nan, -1.0, 2.0])
    with Graph() as graph:
        loss = weighted_sum(graph, relu(x))
    out = relu(x).data
    assert np.isnan(out[0]) and out[1:].tolist() == [0.0, 2.0]
    backward(loss, graph)
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_relu_values_and_subgradient_at_zero():
    x = Tensor([-1.0, 0.0, 2.0])
    with Graph() as graph:
        loss = weighted_sum(graph, relu(x))
    assert relu(x).data.tolist() == [0.0, 0.0, 2.0]
    backward(loss, graph)
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_add_backward():
    a = Tensor([1.0, -2.0])
    b = Tensor([3.0, 5.0])
    with Graph() as graph:
        loss = weighted_sum(graph, add(add(a, b), b), np.array([3.0, -0.5]))  # u·(a + 2b)
    backward(loss, graph)
    assert a.grad.tolist() == [3.0, -0.5]
    assert b.grad.tolist() == [6.0, -1.0]


def test_parameter_used_twice_accumulates():
    p = Tensor([2.0, 4.0])
    with Graph() as graph:
        loss = weighted_sum(graph, add(p, p), np.array([1.5, -1.0]))
    backward(loss, graph)
    assert p.grad.tolist() == [3.0, -2.0]


def test_unused_parameter_keeps_none_gradient():
    # "no gradient" is represented as None, not a zero array
    used = Tensor([1.0])
    unused = Tensor([5.0])
    with Graph() as graph:
        loss = weighted_sum(graph, scale(used, 2.0))
    backward(loss, graph)
    assert used.grad is not None
    assert unused.grad is None


def test_scale_forward_and_backward():
    x = Tensor([2.0, -4.0])
    with Graph() as graph:
        y = scale(x, -0.5)
        loss = weighted_sum(graph, y)
    assert y.data.tolist() == [-1.0, 2.0]
    backward(loss, graph)
    assert x.grad.tolist() == [-0.5, -0.5]


def test_add_shape_mismatch_reports_axis():
    with pytest.raises(ShapeError, match="axis 1"):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError, match="rank differs"):
        add(Tensor(np.zeros((2,))), Tensor(np.zeros((2, 1))))


# --- channel concat ------------------------------------------------------------

def test_concat_slice_roundtrip():
    a = rand_tensor(14, (2, 3, 4, 4))
    b = rand_tensor(15, (2, 2, 4, 4))
    joined = concat_channels(a, b)
    assert joined.shape == (2, 5, 4, 4)
    assert np.array_equal(joined.data[:, :3], a.data)
    assert np.array_equal(joined.data[:, 3:], b.data)


def test_concat_backward_splits_gradient():
    a = rand_tensor(16, (1, 2, 3, 3))
    b = rand_tensor(17, (1, 1, 3, 3))
    upstream = rand_tensor(18, (1, 3, 3, 3)).data
    with Graph() as graph:
        loss = weighted_sum(graph, scale(concat_channels(a, b), 2.0), upstream)
    backward(loss, graph)
    assert np.array_equal(a.grad, 2.0 * upstream[:, :2])
    assert np.array_equal(b.grad, 2.0 * upstream[:, 2:])


def test_concat_requires_rank_four():
    with pytest.raises(ShapeError):
        concat_channels(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))



# --- L1 loss ------------------------------------------------------------------

def test_l1_loss_examples():
    x = rand_tensor(19, (2, 3))
    assert l1_loss(x, x).item() == 0.0
    pred = Tensor([0.0, 0.0])
    target = Tensor([1.0, -1.0])
    assert l1_loss(pred, target).item() == 1.0


def test_l1_loss_gradients():
    pred = Tensor([2.0])
    target = Tensor([0.0])
    with Graph() as graph:
        loss = l1_loss(pred, target)
    backward(loss, graph)
    assert pred.grad.tolist() == [1.0]
    assert target.grad.tolist() == [-1.0]

    # tied values: sign(0) = 0, so the gradient is exactly zero
    a = Tensor([1.0, 2.0])
    b = Tensor([1.0, 2.0])
    with Graph() as graph:
        loss = l1_loss(a, b)
    backward(loss, graph)
    assert a.grad.tolist() == [0.0, 0.0]


def test_l1_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        l1_loss(Tensor([1.0]), Tensor([1.0, 2.0]))


# --- backward mechanics --------------------------------------------------------

def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0])
    with Graph() as graph:
        y = relu(x)
    with pytest.raises(ShapeError):
        backward(y, graph)


def test_backward_is_linear_in_loss_scale():
    p = rand_tensor(20, (3, 4))
    q = rand_tensor(21, (3, 4))

    def run(alpha):
        p.grad = None
        q.grad = None
        with Graph() as graph:
            loss = scale(l1_loss(relu(p), q), alpha)
        backward(loss, graph)
        return p.grad.copy(), q.grad.copy()

    gp1, gq1 = run(1.0)
    gp3, gq3 = run(3.0)
    assert np.allclose(gp3, 3.0 * gp1, atol=1e-12, rtol=1e-12)
    assert np.allclose(gq3, 3.0 * gq1, atol=1e-12, rtol=1e-12)


def test_backward_consumes_the_graph():
    a = Tensor([1.0, -2.0])
    b = Tensor([3.0, 5.0])
    with Graph() as graph:
        hidden = add(a, b)
        loss = weighted_sum(graph, add(hidden, b), np.array([3.0, -0.5]))  # u·(a + 2b)
    assert len(graph._records) == 3
    backward(loss, graph)
    assert graph._records == []
    assert hidden.grad is None and loss.grad is None
    assert a.grad.tolist() == [3.0, -0.5]
    assert b.grad.tolist() == [6.0, -1.0]
    backward(loss, graph)  # nothing left to replay: the leaves keep their grads
    assert a.grad.tolist() == [3.0, -0.5]
    assert b.grad.tolist() == [6.0, -1.0]


def test_first_gradient_is_a_copy():
    # add hands one array to both inputs; a later contribution to a must not reach b
    a = Tensor([3.0])
    b = Tensor([2.0])
    with Graph() as graph:
        doubled = scale(a, 2.0)  # recorded first, so replayed after add
        loss = weighted_sum(graph, add(doubled, add(a, b)))
    backward(loss, graph)
    assert a.grad.tolist() == [3.0] and b.grad.tolist() == [1.0]


def test_gradients_accumulate_across_graphs():
    # gradients accumulate until the caller resets them to None
    w = Tensor([3.0])
    with Graph() as graph:
        loss = weighted_sum(graph, scale(w, 2.0), np.array([3.0]))
    backward(loss, graph)
    with Graph() as graph:
        loss = weighted_sum(graph, scale(w, 2.0), np.array([3.0]))
    backward(loss, graph)
    assert w.grad.tolist() == [12.0]


def test_gradient_paths_are_deterministic():
    x = rand_tensor(22, (1, 3, 6, 6))
    w = rand_tensor(23, (2, 3, 3, 3))
    b = rand_tensor(24, (2,))

    def run():
        for t in (x, w, b):
            t.grad = None
        with Graph() as graph:
            loss = l1_loss(relu(conv2d(x, w, b, pad=1)),
                           Tensor(np.zeros((1, 2, 6, 6))))
        backward(loss, graph)
        return (x.grad.tobytes(), w.grad.tobytes(), b.grad.tobytes())

    assert run() == run()


# --- tape ownership ------------------------------------------------------------

def every_op_forward(leaves, keep):
    """l1(concat(conv(relu(conv(x))) + x, scale(x)), target) on a fresh Graph; every
    intermediate passes through keep. Returns (loss, graph) and no other intermediate."""
    x, w1, b1, w2, b2, target = leaves
    with Graph() as graph:
        h = keep(conv2d(x, w1, b1, pad=1))
        h = keep(relu(h))
        h = keep(conv2d(h, w2, b2, pad=1))
        h = keep(add(h, x))
        h = keep(concat_channels(h, keep(scale(x, 0.5))))
        loss = l1_loss(h, target)
    return loss, graph


def ownership_leaves():
    return [rand_tensor(40, (2, 2, 5, 6)), rand_tensor(41, (3, 2, 3, 3)), rand_tensor(42, (3,)),
            rand_tensor(43, (2, 3, 3, 3)), rand_tensor(44, (2,)), rand_tensor(45, (2, 4, 5, 6))]


def test_intermediates_die_with_their_callers():
    # the tape keeps grad slots and what each adjoint reads (the conv grids, relu mask, l1
    # sign), so once the caller drops an op output, its data is freed before backward
    leaves = ownership_leaves()
    refs = []

    def track(t):
        refs.append(weakref.ref(t.data))
        return t

    loss, graph = every_op_forward(leaves, track)
    assert len(refs) == 6 and all(ref() is None for ref in refs)
    backward(loss, graph)
    dropped = [t.grad.tobytes() for t in leaves]

    for t in leaves:
        t.grad = None
    kept = []
    loss, graph = every_op_forward(leaves, lambda t: kept.append(t) or t)
    backward(loss, graph)
    assert [t.grad.tobytes() for t in leaves] == dropped
    assert all(t.grad is None for t in kept)  # only leaves carry .grad


def test_no_record_holds_an_op_output():
    loss, graph = every_op_forward(ownership_leaves(), lambda t: t)
    assert len(graph._records) == 7
    for name, *held in graph._records:
        cells = [cell.cell_contents for cell in held[-1].__closure__ or ()]
        # a closure may hold leaves (the weights), never a tensor an op produced
        assert not any(isinstance(item, Tensor) for item in held), name
        assert not any(isinstance(c, Tensor) and c.slot is not None for c in cells), name
    backward(loss, graph)
    assert graph._records == []


def test_a_record_closing_over_an_op_output_reaches_its_slot():
    # weighted_sum's closure holds scale's output and calls its accumulate_grad, which
    # feeds the output's slot, so scale's own record still receives that gradient
    x = Tensor([1.0, -2.0])
    with Graph() as graph:
        y = scale(x, 3.0)
        loss = weighted_sum(graph, y, np.array([0.5, 2.0]))
    backward(loss, graph)
    assert x.grad.tolist() == [1.5, 6.0]
    assert y.grad is None and y.slot.grad is None


# --- grid layout -----------------------------------------------------------------

def ring_bytes(grid, layout):
    """The bytes of every grid column that holds no value (all +0.0 when the ring is zero)."""
    ring = grid.copy()
    layout.interior(ring)[...] = 0.0
    return ring.tobytes()


class RingCheckedGraph(Graph):
    """A Graph that checks the ring of every gradient grid it hands a closure."""

    __slots__ = ("checked",)

    def __init__(self):
        super().__init__()
        self.checked = []

    def record(self, name, output, backward_fn):
        layout = output.layout

        def checked(g):
            if layout is not None:
                self.checked.append(name)
                assert ring_bytes(g, layout) == bytes(g.nbytes), name
            backward_fn(g)
        super().record(name, output, checked)


@given(n=st.integers(1, 2), h=st.integers(2, 6), w=st.integers(2, 6), pad=st.integers(0, 2),
       poison=st.booleans())
def test_every_grid_ring_is_zero(n, h, w, pad, poison):
    """The ring of every op output and of every gradient grid (dX included) holds +0.0 only,
    also when relu meets NaN."""
    k = 2 * pad + 1
    x = rand_tensor(50, (n, 2, h, w))
    if poison:
        x.data[0, 0, 0, 0] = np.nan
    w1, b1 = rand_tensor(51, (3, 2, k, k)), rand_tensor(52, (3,))
    w2, b2 = rand_tensor(53, (2, 3, 3, 3)), rand_tensor(54, (2,))
    outputs = []

    def keep(t):
        outputs.append(t)
        return t

    with RingCheckedGraph() as graph:
        h1 = keep(relu(keep(conv2d(x, w1, b1, pad=pad))))
        h2 = keep(add(keep(conv2d(h1, w2, b2, pad=1)), x))
        h3 = keep(concat_channels(keep(scale(h2, -2.0)), h1))
        loss = l1_loss(h3, Tensor.constant(np.zeros(h3.shape)))
    for t in outputs:
        assert ring_bytes(t.grid, t.layout) == bytes(t.grid.nbytes)
    assert np.isnan(h1.data).any() == poison
    backward(loss, graph)
    assert graph.checked.count("conv2d") == 2 and "relu" in graph.checked


def test_a_conv_keeps_its_input_grid_not_a_copy():
    x = rand_tensor(60, (2, 3, 5, 6))
    w1, b1 = rand_tensor(61, (4, 3, 3, 3)), rand_tensor(62, (4,))
    w2, b2 = rand_tensor(63, (4, 4, 3, 3)), rand_tensor(64, (4,))
    with Graph() as graph:
        r = relu(conv2d(x, w1, b1, pad=1))
        s = add(r, conv2d(r, w2, b2, pad=1))
        conv2d(s, w2, b2, pad=1)
    (_, _, relu_fn), (_, _, conv_r_fn), (_, _, _), (_, _, conv_s_fn) = graph._records[1:]

    def arrays(fn):
        return [c.cell_contents for c in fn.__closure__
                if isinstance(c.cell_contents, np.ndarray)]

    # the conv reading r keeps (a view of) r's grid, and relu's adjoint reads that same array
    assert any(np.shares_memory(a, r.data) for a in arrays(conv_r_fn))
    assert any(a is r.grid for a in arrays(relu_fn))
    assert any(np.shares_memory(a, s.data) for a in arrays(conv_s_fn))
    for name, _, fn in graph._records:
        assert not any(a is r.data or a is s.data for a in arrays(fn)), name


def test_constant_inputs_take_no_gradient():
    w, b = rand_tensor(70, (4, 3, 3, 3)), rand_tensor(71, (4,))

    def grads(make):
        x, y = make(rand_tensor(72, (2, 3, 5, 6)).data), make(rand_tensor(73, (2, 4, 5, 6)).data)
        w.grad = b.grad = None
        with Graph() as graph:
            h = concat_channels(conv2d(x, w, b, pad=1), y)
            loss = l1_loss(add(h, h), Tensor(np.zeros(h.shape)))
        backward(loss, graph)
        return x, y, (w.grad.tobytes(), b.grad.tobytes())

    x, y, leaf_grads = grads(Tensor)
    assert x.grad is not None and y.grad is not None
    x, y, constant_grads = grads(Tensor.constant)
    assert x.grad is None and y.grad is None
    assert constant_grads == leaf_grads
