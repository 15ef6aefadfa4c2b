"""Finite-difference gradient checker: agreement on functions with known
gradients, and coverage of the built-in per-op check suite."""

import numpy as np

from conftest import rand_tensor
from taylor_restore import verification
from taylor_restore.autodiff import Tensor, check_gradients, mean_all, mul, sum_all
from taylor_restore.verification import per_op_gradchecks

EXPECTED_OPS = {
    "conv2d", "relu", "concat_channels", "add", "mul",
    "scale", "sum_all", "mean_all", "l1_loss",
}


def test_quadratic_gradient_is_recovered():
    x = rand_tensor(1, (3, 4))
    err = check_gradients(lambda: mean_all(mul(x, x)), [x])
    assert err < 1e-8


def test_constant_function_has_zero_error():
    x = rand_tensor(2, (2, 2))
    fixed = rand_tensor(3, (2, 2))
    err = check_gradients(lambda: sum_all(mul(fixed, fixed)), [x])
    assert err == 0.0


def test_subsampled_checks_still_pass():
    x = rand_tensor(4, (10, 10))
    f = lambda: mean_all(mul(x, x))
    err_a = check_gradients(f, [x], max_checks_per_param=3, seed=5)
    err_b = check_gradients(f, [x], max_checks_per_param=3, seed=5)
    assert err_a < 1e-8
    assert err_a == err_b  # same probe selection for the same seed


def test_multiple_parameters_checked_together():
    a = rand_tensor(6, (2, 3))
    b = rand_tensor(7, (2, 3))
    err = check_gradients(lambda: sum_all(mul(a, b)), [a, b])
    assert err < 1e-8


def test_zero_sized_probe_budget_checks_everything():
    x = Tensor(np.array([1.5, -0.5, 2.0]))
    err = check_gradients(lambda: mean_all(mul(x, x)), [x], max_checks_per_param=None)
    assert err < 1e-8


def test_builtin_suite_covers_every_op():
    results = per_op_gradchecks(seed=2024)
    names = {name for name, _ in results}
    assert names == EXPECTED_OPS
    for name, err in results:
        assert err < 1e-6, f"{name} gradient error {err}"


def test_conv2d_check_reaches_every_layout(monkeypatch):
    """The one conv2d entry checks a weight shape for each GEMM layout conv2d picks."""
    channels = []
    real_conv2d = verification.conv2d

    def recording_conv2d(x, weight, bias, **kwargs):
        channels.append(weight.shape[:2])
        return real_conv2d(x, weight, bias, **kwargs)

    monkeypatch.setattr(verification, "conv2d", recording_conv2d)
    per_op_gradchecks(seed=2024)
    layouts = {"thin input" if 2 * cin <= cout else "thin output" if 2 * cout <= cin else "per tap"
               for cout, cin in channels}
    assert layouts == {"per tap", "thin input", "thin output"}
