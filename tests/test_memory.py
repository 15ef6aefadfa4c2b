"""A fixed memory budget for one paper-default training step, so that a change which brings
back a full-span temporary (a tap stack, a padded copy, a saved mask) fails here."""

import tracemalloc

from conftest import rand_array
from taylor_restore.autodiff import Graph, Tensor, backward
from taylor_restore.composer import ComposerConfig, framework_loss_terms
from taylor_restore.networks import DerivativeSpec, MappingSpec
from taylor_restore.trainer import Model

# Measured 131.3 MB for this step; the tape holds 117 MB of it, mostly the conv input grids.
# Whole-span tap stacks (one tile per span) read 140.8 MB, and the step before activations
# stayed in their grids 155.1 MB.
STEP_PEAK_MB = 135.0


def test_paper_default_step_stays_within_its_memory_budget():
    model = Model.init(MappingSpec(), DerivativeSpec(), ComposerConfig(), seed=0)
    degraded = Tensor.constant(rand_array(1, (4, 3, 100, 100), 0.0, 1.0))
    clean = Tensor.constant(rand_array(2, (4, 3, 100, 100), 0.0, 1.0))
    tracemalloc.start()
    try:
        with Graph() as graph:
            total = framework_loss_terms(model.forward(degraded), clean, model.composer)[0]
        backward(total, graph)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert all(tensor.grad is not None for tensor in model.params.tensors())
    assert peak_mb <= STEP_PEAK_MB
