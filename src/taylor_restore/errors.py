"""Exception types shared across the package.

The CLI maps these to its documented exit codes: ConfigError -> 2, I/O and
format problems (OSError, FormatError) -> 3, DivergenceError -> 4. A
MemoryError (a model or batch too large for the machine) -> 2 as well. Gradient
check failure is signalled by the check's result, not an exception.
"""

from __future__ import annotations


class ConfigError(Exception):
    """Bad configuration: unknown key, unparsable value, invalid combination."""


class FormatError(Exception):
    """Malformed on-disk data: PPM header/payload, checkpoint, manifest."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter gradient."""

    def __init__(self, step: int, lr: float, value: float, quantity: str = "loss"):
        super().__init__(
            f"non-finite {quantity} {value!r} at step {step} (lr={lr!r}); aborting"
        )
        self.step = step
        self.lr = lr
        self.value = value
