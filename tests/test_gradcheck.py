"""Finite-difference gradient checker: agreement on functions with known
gradients, the re-measure of kinks within the step, and coverage of the
built-in per-op check suite."""

import ast
from pathlib import Path

import numpy as np
import pytest

import taylor_restore.autodiff as autodiff
from conftest import rand_tensor
from taylor_restore import verification
from taylor_restore.autodiff import Tensor, check_gradients, l1_loss, scale
from taylor_restore.autodiff.tensor import active_graph
from taylor_restore.cli import main
from taylor_restore.composer import VARIANTS
from taylor_restore.verification import COMPOSED_THRESHOLD, PER_OP_THRESHOLD, per_op_gradchecks

EXPECTED_OPS = {"conv2d", "relu", "concat_channels", "add", "scale", "l1_loss"}


def test_linear_gradient_is_recovered():
    x = rand_tensor(1, (3, 4))
    target = Tensor(x.data + 0.5)
    err = check_gradients(lambda: l1_loss(scale(x, -1.75), target), [x])
    assert err < 1e-8


def test_constant_function_has_zero_error():
    x = rand_tensor(2, (2, 2))
    fixed = rand_tensor(3, (2, 2))
    err = check_gradients(lambda: l1_loss(fixed, Tensor(np.zeros((2, 2)))), [x])
    assert err == 0.0


def test_multiple_parameters_checked_together():
    a = rand_tensor(6, (2, 3))
    b = rand_tensor(7, (2, 3))
    err = check_gradients(lambda: l1_loss(a, b), [a, b])
    assert err < 1e-8


def test_kink_within_the_step_is_remeasured():
    # the L1 kink sits 3e-6 from x, inside the default step of 1e-5: the central difference
    # there is -0.3 against an exact -1, and the re-measure at 1e-7 recovers it
    x = Tensor([0.25])
    target = Tensor([0.25 + 3e-6])
    assert check_gradients(lambda: l1_loss(x, target), [x]) < 1e-8


def test_seed_7_composed_check_remeasures_at_most_two_elements():
    # one taped forward, two per element, and four more per re-measured element; at seed 7 at
    # most one element per variant has a central error above rounding level, and only such an
    # element is measured again
    for variant in VARIANTS:
        loss_fn, tensors = verification.build_tiny_model(variant, seed=7)
        forwards = 0

        def counted() -> Tensor:
            nonlocal forwards
            forwards += 1
            return loss_fn()

        assert check_gradients(counted, tensors) < COMPOSED_THRESHOLD
        elements = sum(tensor.data.size for tensor in tensors)
        assert 1 + 2 * elements <= forwards <= 1 + 2 * elements + 4 * 2, variant


@pytest.mark.parametrize("kernel", [1, 5])
@pytest.mark.parametrize("variant", VARIANTS)
def test_composed_check_passes_at_other_kernel_sizes(variant, kernel):
    # the config accepts any odd kernel; the CLI's composed check runs 3 only
    loss_fn, tensors = verification.build_tiny_model(variant, seed=7, kernel=kernel)
    assert check_gradients(loss_fn, tensors) < COMPOSED_THRESHOLD


def wrong_relu(x: Tensor) -> Tensor:
    """relu whose adjoint is 1% too large."""
    out = Tensor(np.maximum(x.data, 0.0))
    graph = active_graph()
    if graph is not None:
        graph.record("relu", out, lambda g: x.accumulate_grad(1.01 * g * (x.data > 0.0)))
    return out


def test_wrong_adjoint_at_a_kink_within_the_step_still_fails():
    # relu's kink lies 2e-6 from x, inside the step: the re-measure at a smaller step
    # agrees with the true gradient, not with the wrong adjoint
    x = Tensor([2e-6])
    target = Tensor([-1.0])
    assert check_gradients(lambda: l1_loss(wrong_relu(x), target), [x]) > 5e-3


def test_wrong_adjoint_fails_the_gradcheck_command(monkeypatch, capsys):
    monkeypatch.setattr(verification, "relu", wrong_relu)
    errors = dict(per_op_gradchecks(seed=2024))
    assert errors["relu"] > PER_OP_THRESHOLD
    assert main(["gradcheck", "--seed", "28"]) == 5
    assert "op relu" in capsys.readouterr().out


def test_gradcheck_seed_with_a_kink_in_the_step_passes(capsys):
    # seed 28 puts a relu or L1 kink within 1e-5 of a coordinate of the composed
    # with_k_residual check; only the re-measure at a smaller step passes it
    assert main(["gradcheck", "--seed", "28"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck PASS"


def test_builtin_suite_covers_every_op():
    results = per_op_gradchecks(seed=2024)
    names = {name for name, _ in results}
    assert names == EXPECTED_OPS
    for name, err in results:
        assert err < PER_OP_THRESHOLD, f"{name} gradient error {err}"


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


def test_tooling_every_autodiff_export_has_a_caller_outside_autodiff():
    """Every name the autodiff package exports is used by a module of the program outside
    autodiff/. A package __init__ only re-exports, and the per-op checks of verification.py
    exist to test the ops, so neither counts as a caller; check_gradients is the one export
    that exists for those checks."""
    package = Path(verification.__file__).resolve().parent
    used = set()
    for path in package.rglob("*.py"):
        parts = path.relative_to(package).parts
        if "autodiff" in parts or path.name in ("__init__.py", "verification.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module == "autodiff" and node.level == 1 for alias in node.names}
        used |= imported & {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(autodiff.__all__) - used) == ["check_gradients"]
    assert "check_gradients(" in Path(verification.__file__).read_text(encoding="utf-8")
