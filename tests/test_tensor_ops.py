"""Differentiable array operations: forward values against loop oracles and
hand-worked examples, gradients against hand-derived closed forms."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import conv2d_backward_bruteforce, conv2d_bruteforce, rand_tensor
from taylor_restore.autodiff import (
    Graph,
    ShapeError,
    Tensor,
    add,
    backward,
    concat_channels,
    conv2d,
    l1_loss,
    mean_all,
    mul,
    relu,
    scale,
    sum_all,
)
from taylor_restore.autodiff import ops


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


def test_constructors():
    z = Tensor.zeros((2, 3))
    assert z.shape == (2, 3) and float(np.abs(z.data).max()) == 0.0
    f = Tensor.full((4,), 1.5)
    assert f.data.tolist() == [1.5] * 4


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
    dict(x=(1, 1, 5, 5), w=(1, 1, 3, 3), pad=0, stride=1),
    dict(x=(2, 3, 6, 5), w=(4, 3, 3, 3), pad=1, stride=2),
    dict(x=(1, 2, 4, 7), w=(3, 2, 1, 1), pad=0, stride=1),
    dict(x=(1, 2, 5, 6), w=(2, 2, 1, 3), pad=2, stride=3),
    # thin input (2*Cin <= Cout): the taps are stacked under one GEMM
    dict(x=(2, 3, 7, 6), w=(6, 3, 3, 3), pad=1, stride=1),
    dict(x=(1, 2, 6, 7), w=(5, 2, 5, 5), pad=3, stride=2),
    dict(x=(2, 3, 5, 4), w=(8, 3, 1, 1), pad=0, stride=1),
    # thin output (2*Cout <= Cin): one GEMM over the grid, its row blocks summed shifted
    dict(x=(2, 8, 6, 5), w=(3, 8, 3, 3), pad=1, stride=2),
    dict(x=(1, 6, 7, 7), w=(2, 6, 5, 5), pad=2, stride=1),
    dict(x=(2, 4, 4, 5), w=(2, 4, 1, 1), pad=1, stride=1),
]


@pytest.mark.parametrize("case", FORWARD_CASES)
def test_conv2d_matches_loop_oracle(case):
    x = rand_tensor(1, case["x"])
    w = rand_tensor(2, case["w"])
    b = rand_tensor(3, (case["w"][0],))
    out = conv2d(x, w, b, pad=case["pad"], stride=case["stride"])
    ref = conv2d_bruteforce(x.data, w.data, b.data, case["pad"], case["stride"])
    assert out.shape == ref.shape
    assert np.allclose(out.data, ref, atol=1e-12, rtol=1e-12)


BACKWARD_CASES = [
    # the model's "same" convs: pad = k // 2, batch 2, non-square images
    dict(x=(2, 3, 5, 7), w=(4, 3, 1, 1), pad=0, stride=1),
    dict(x=(2, 3, 5, 7), w=(4, 3, 3, 3), pad=1, stride=1),
    dict(x=(2, 2, 7, 6), w=(3, 2, 5, 5), pad=2, stride=1),
    dict(x=(2, 3, 7, 6), w=(2, 3, 3, 3), pad=1, stride=2),
    dict(x=(2, 2, 4, 5), w=(3, 2, 3, 3), pad=3, stride=1),  # pad wider than k // 2
    # thin input, in the model's shapes (3 -> 8, 6 -> 16) and beyond
    dict(x=(2, 3, 5, 7), w=(8, 3, 3, 3), pad=1, stride=1),
    dict(x=(2, 6, 6, 5), w=(16, 6, 3, 3), pad=1, stride=1),
    dict(x=(2, 3, 7, 6), w=(6, 3, 3, 3), pad=1, stride=2),
    dict(x=(2, 2, 4, 5), w=(4, 2, 3, 3), pad=3, stride=1),
    dict(x=(2, 2, 7, 6), w=(5, 2, 5, 5), pad=2, stride=1),
    dict(x=(2, 3, 5, 7), w=(7, 3, 1, 1), pad=0, stride=1),
    # thin output, in the model's shapes (8 -> 3, 16 -> 3) and beyond
    dict(x=(2, 8, 5, 7), w=(3, 8, 3, 3), pad=1, stride=1),
    dict(x=(2, 16, 6, 5), w=(3, 16, 3, 3), pad=1, stride=1),
    dict(x=(2, 6, 7, 6), w=(3, 6, 3, 3), pad=1, stride=2),
    dict(x=(2, 4, 4, 5), w=(2, 4, 3, 3), pad=3, stride=1),
    dict(x=(2, 5, 7, 6), w=(2, 5, 5, 5), pad=2, stride=1),
    dict(x=(2, 7, 5, 7), w=(3, 7, 1, 1), pad=0, stride=1),
    # grids of 5,208 columns, longer than one dW block, in each layout
    dict(x=(2, 2, 40, 60), w=(3, 2, 3, 3), pad=1, stride=1),
    dict(x=(2, 1, 40, 60), w=(2, 1, 3, 3), pad=1, stride=1),
    dict(x=(2, 2, 40, 60), w=(1, 2, 3, 3), pad=1, stride=1),
    # kh != kw, so the mirrored offsets of dX differ between rows and columns; each layout
    dict(x=(2, 2, 5, 7), w=(3, 2, 1, 3), pad=1, stride=2),
    dict(x=(2, 4, 5, 6), w=(4, 4, 3, 1), pad=0, stride=2),
    dict(x=(2, 3, 6, 5), w=(8, 3, 3, 1), pad=1, stride=1),
    dict(x=(2, 2, 6, 7), w=(6, 2, 1, 5), pad=0, stride=1),
    dict(x=(2, 8, 6, 7), w=(3, 8, 1, 5), pad=2, stride=3),
    dict(x=(2, 6, 7, 5), w=(2, 6, 5, 3), pad=1, stride=1),
]


@pytest.mark.parametrize("case", BACKWARD_CASES)
def test_conv2d_backward_matches_loop_oracle(case):
    x = rand_tensor(30, case["x"])
    w = rand_tensor(31, case["w"])
    b = rand_tensor(32, (case["w"][0],))
    with Graph() as graph:
        out = conv2d(x, w, b, pad=case["pad"], stride=case["stride"])
        upstream = rand_tensor(33, out.shape)
        loss = sum_all(mul(out, upstream))  # d(loss)/d(out) = upstream
    backward(loss, graph)
    ref_x, ref_w, ref_b = conv2d_backward_bruteforce(
        x.data, w.data, upstream.data, case["pad"], case["stride"])
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


@pytest.mark.parametrize("oracle_test, case", [
    *[(test_conv2d_matches_loop_oracle, case) for case in FORWARD_CASES],
    *[(test_conv2d_backward_matches_loop_oracle, case) for case in BACKWARD_CASES],
])
def test_conv2d_reads_no_unwritten_scratch(monkeypatch, oracle_test, case):
    """conv2d leaves the scratch columns past its last output unwritten: with every
    `np.empty` in `ops` NaN-filled, outputs and gradients still match the oracles."""
    monkeypatch.setattr(ops, "np", PoisonedNumpy())
    oracle_test(case)


@given(h=st.integers(3, 10), w=st.integers(3, 10), k=st.sampled_from([1, 3, 5]),
       pad=st.integers(0, 2), stride=st.integers(1, 3))
def test_conv2d_output_shape_formula(h, w, k, pad, stride):
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    x = rand_tensor(4, (1, 2, h, w))
    wt = rand_tensor(5, (3, 2, k, k))
    b = Tensor(np.zeros(3))
    out = conv2d(x, wt, b, pad=pad, stride=stride)
    assert out.shape == (1, 3,
                         (h + 2 * pad - k) // stride + 1,
                         (w + 2 * pad - k) // stride + 1)


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

def test_relu_values_and_subgradient_at_zero():
    x = Tensor([-1.0, 0.0, 2.0])
    with Graph() as graph:
        loss = sum_all(relu(x))
    assert relu(x).data.tolist() == [0.0, 0.0, 2.0]
    backward(loss, graph)
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_add_and_mul_backward():
    a = Tensor([1.0, -2.0])
    b = Tensor([3.0, 5.0])
    with Graph() as graph:
        loss = sum_all(mul(add(a, b), b))  # d/da = b, d/db = a + 2b
    backward(loss, graph)
    assert a.grad.tolist() == [3.0, 5.0]
    assert b.grad.tolist() == [7.0, 8.0]


def test_square_via_shared_operand():
    w = Tensor([3.0])
    with Graph() as graph:
        loss = sum_all(mul(w, w))
    backward(loss, graph)
    assert w.grad.tolist() == [6.0]


def test_parameter_used_twice_accumulates():
    p = Tensor([2.0, 4.0])
    with Graph() as graph:
        loss = sum_all(add(p, p))
    backward(loss, graph)
    assert p.grad.tolist() == [2.0, 2.0]


def test_unused_parameter_keeps_none_gradient():
    # "no gradient" is represented as None, not a zero array
    used = Tensor([1.0])
    unused = Tensor([5.0])
    with Graph() as graph:
        loss = sum_all(mul(used, used))
    backward(loss, graph)
    assert used.grad is not None
    assert unused.grad is None


def test_scale_forward_and_backward():
    x = Tensor([2.0, -4.0])
    with Graph() as graph:
        y = scale(x, -0.5)
        loss = sum_all(y)
    assert y.data.tolist() == [-1.0, 2.0]
    backward(loss, graph)
    assert x.grad.tolist() == [-0.5, -0.5]


def test_mean_all_gradient_is_uniform():
    x = rand_tensor(13, (2, 5))
    with Graph() as graph:
        loss = mean_all(x)
    assert loss.item() == pytest.approx(float(x.data.mean()), abs=1e-15)
    backward(loss, graph)
    assert np.array_equal(x.grad, np.full((2, 5), 1.0 / 10.0))


def test_add_shape_mismatch_reports_axis():
    with pytest.raises(ShapeError, match="axis 1"):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        mul(Tensor(np.zeros((2,))), Tensor(np.zeros((2, 1))))


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
    with Graph() as graph:
        loss = sum_all(scale(concat_channels(a, b), 2.0))
    backward(loss, graph)
    assert np.array_equal(a.grad, np.full((1, 2, 3, 3), 2.0))
    assert np.array_equal(b.grad, np.full((1, 1, 3, 3), 2.0))


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
            loss = scale(mean_all(mul(relu(p), q)), alpha)
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
        loss = sum_all(mul(hidden, b))  # d/da = b, d/db = a + 2b
    assert len(graph) == 3
    backward(loss, graph)
    assert len(graph) == 0
    assert hidden.grad is None and loss.grad is None
    assert a.grad.tolist() == [3.0, 5.0]
    assert b.grad.tolist() == [7.0, 8.0]
    backward(loss, graph)  # nothing left to replay: the leaves keep their grads
    assert a.grad.tolist() == [3.0, 5.0]
    assert b.grad.tolist() == [7.0, 8.0]


def test_first_gradient_is_a_copy():
    # add hands one array to both inputs; a later contribution to a must not reach b
    a = Tensor([3.0])
    b = Tensor([2.0])
    with Graph() as graph:
        square = mul(a, a)  # recorded first, so replayed after add
        loss = sum_all(add(square, add(a, b)))
    backward(loss, graph)
    assert a.grad.tolist() == [7.0] and b.grad.tolist() == [1.0]


def test_gradients_accumulate_across_graphs():
    # gradients accumulate until the caller resets them to None
    w = Tensor([3.0])
    with Graph() as graph:
        loss = sum_all(mul(w, w))
    backward(loss, graph)
    with Graph() as graph:
        loss = sum_all(mul(w, w))
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
