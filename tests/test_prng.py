"""Counter-mode SplitMix64 generator: the documented update equations,
re-implemented independently here, must agree bit-for-bit with the package."""

import math

import pytest
from hypothesis import given, strategies as st

from taylor_restore.prng import GAMMA, MASK64, SplitMix64, derive_stream, mix64

U64 = (1 << 64) - 1


def mix64_reference(z: int) -> int:
    z &= U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
    return z ^ (z >> 31)


def stream_reference(seed: int, count: int) -> list[int]:
    return [mix64_reference((seed + i * GAMMA) & U64) for i in range(1, count + 1)]


def test_gamma_constant():
    assert GAMMA == 0x9E3779B97F4A7C15
    assert MASK64 == U64


@given(st.integers(min_value=0, max_value=U64))
def test_mix64_matches_reference(z):
    assert mix64(z) == mix64_reference(z)


@given(st.integers(min_value=0, max_value=U64), st.integers(min_value=1, max_value=40))
def test_scalar_stream_matches_reference(seed, count):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(count)] == stream_reference(seed, count)


@given(st.integers(min_value=0, max_value=U64), st.integers(min_value=0, max_value=40))
def test_block_equals_scalar_draws(seed, count):
    block = SplitMix64(seed).next_u64_block(count)
    scalar = SplitMix64(seed)
    assert block.tolist() == [scalar.next_u64() for _ in range(count)]
    assert block.dtype.name == "uint64"


def test_uniforms_are_scaled_raw_draws():
    seed = 1234
    rng = SplitMix64(seed)
    values = rng.uniforms(64)
    raws = stream_reference(seed, 64)
    for value, raw in zip(values.tolist(), raws):
        assert value == (raw >> 11) * 2.0 ** -53
        assert 0.0 <= value < 1.0


def test_uniform_range_is_half_open():
    rng = SplitMix64(7)
    for _ in range(200):
        value = rng.uniform(-2.5, 4.0)
        assert -2.5 <= value < 4.0


def test_gaussians_consume_two_draws_per_pair():
    for count in (1, 2, 3, 8):
        rng = SplitMix64(99)
        rng.gaussians(count)
        consumed = 2 * math.ceil(count / 2)
        expected = SplitMix64(99)
        expected.next_u64_block(consumed)
        assert rng.state == expected.state


def test_gaussian_pair_values_match_box_muller():
    seed = 31
    raws = stream_reference(seed, 2)
    u1 = ((raws[0] >> 11) + 1) * 2.0 ** -53
    u2 = (raws[1] >> 11) * 2.0 ** -53
    radius = math.sqrt(-2.0 * math.log(u1))
    expected = [radius * math.cos(2.0 * math.pi * u2),
                radius * math.sin(2.0 * math.pi * u2)]
    got = SplitMix64(seed).gaussians(2)
    assert got.tolist() == pytest.approx(expected, abs=1e-15)


def test_gaussian_moments_are_sane():
    sample = SplitMix64(5).gaussians(20000)
    assert abs(float(sample.mean())) < 0.05
    assert abs(float(sample.std()) - 1.0) < 0.05


def test_randint_bounds_and_errors():
    rng = SplitMix64(11)
    draws = [rng.randint(6) for _ in range(500)]
    assert set(draws) == {0, 1, 2, 3, 4, 5}
    assert SplitMix64(11).randint(1) == 0
    with pytest.raises(ValueError):
        rng.randint(0)
    with pytest.raises(ValueError):
        rng.randint(-3)


def test_randint_is_modulo_of_raw_draw():
    seed, bound = 404, 17
    raw = stream_reference(seed, 1)[0]
    assert SplitMix64(seed).randint(bound) == raw % bound


def test_state_roundtrip_resumes_stream():
    rng = SplitMix64(77)
    rng.next_u64_block(13)
    saved = rng.state
    tail = rng.next_u64_block(10).tolist()
    other = SplitMix64(0)
    other.state = saved
    assert other.next_u64_block(10).tolist() == tail


def test_derive_stream_definition_and_distinctness():
    seed = 2024
    for index in range(8):
        expected = mix64_reference(seed ^ mix64_reference(((index + 1) * GAMMA) & U64))
        assert derive_stream(seed, index) == expected
    children = {derive_stream(seed, i) for i in range(100)}
    assert len(children) == 100
    assert derive_stream(seed, 0) != derive_stream(seed + 1, 0)
