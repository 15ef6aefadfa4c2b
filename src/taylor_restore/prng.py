"""Deterministic pseudo-random streams.

Every piece of randomness in this package (streak placement, noise, weight
init, patch sampling) flows through the single generator defined here, so a
run is reproducible bit for bit from its seed and the generator state can be
checkpointed as one 64-bit integer.

The generator is SplitMix64 used in counter mode. All arithmetic is modulo
2**64. With GAMMA = 0x9E3779B97F4A7C15:

    state_i = state_0 + i * GAMMA          (i-th call advances the counter)
    output_i = mix64(state_i)

where mix64 is the SplitMix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Derived quantities:

    uniform in [0, 1):   u = (output >> 11) * 2**-53
    uniform in (0, 1]:   u = ((output >> 11) + 1) * 2**-53
    integer in [0, n):   output mod n
    gaussians:           Box-Muller on consecutive pairs; the first draw of a
                         pair is mapped to (0, 1], the second to [0, 1), and
                         z0 = sqrt(-2 ln u1) cos(2 pi u2),
                         z1 = sqrt(-2 ln u1) sin(2 pi u2).
                         Requesting n gaussians always consumes 2*ceil(n/2)
                         outputs.

Child streams (per-sample seeds, per-purpose streams) are split off a parent
seed with

    derive_stream(seed, index) = mix64(seed XOR mix64((index + 1) * GAMMA))

so the content of sample k depends only on (seed, k), never on generation
order or parallelism.

The bulk methods compute output_i for a whole range of i at once with numpy
uint64 arrays (which wrap silently on overflow) and are exactly equivalent to
the same number of scalar calls; the scalar path sticks to Python integers
because numpy uint64 *scalars* warn on overflow.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & MASK64
    return z ^ (z >> 31)


def derive_stream(seed: int, index: int) -> int:
    """Seed for child stream `index` of `seed`; order-independent."""
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return mix64((seed & MASK64) ^ mix64(((index + 1) * GAMMA) & MASK64))


class SplitMix64:
    """Counter-mode SplitMix64 stream. See the module docstring for equations."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    @property
    def state(self) -> int:
        """Current counter; restoring it resumes the stream exactly."""
        return self._state

    @state.setter
    def state(self, value: int) -> None:
        self._state = value & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def next_u64_block(self, n: int) -> np.ndarray:
        """The next n raw outputs as a uint64 array; equals n scalar calls."""
        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * GAMMA) & MASK64
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 samples uniform on [0, 1)."""
        return (self.next_u64_block(n) >> np.uint64(11)) * _INV_2_53

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """One uniform sample on [lo, hi)."""
        u = (self.next_u64() >> 11) * _INV_2_53
        return lo + (hi - lo) * u

    def randint(self, bound: int) -> int:
        """Integer uniform on [0, bound) as next_u64() mod bound."""
        if bound <= 0:
            raise ValueError(f"randint bound must be positive, got {bound}")
        return self.next_u64() % bound

    def gaussians(self, n: int) -> np.ndarray:
        """n standard-normal float64 samples via Box-Muller pairs."""
        if n == 0:
            return np.zeros(0)
        pairs = (n + 1) // 2
        raw = self.next_u64_block(2 * pairs)
        u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * _INV_2_53
        u2 = (raw[1::2] >> np.uint64(11)) * _INV_2_53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]
