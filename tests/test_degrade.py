"""Synthetic degradations and corpus generation: additive rain streaks,
blur kernels with exact mass, and byte-stable corpus regeneration."""

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import taylor_restore
from conftest import rand_array, write_rain_corpus
from taylor_restore.degrade import (
    BlurParams,
    DegradationSpec,
    RainParams,
    corpus_clean_seed,
    generate_clean,
    make_blur_kernel,
    make_corpus,
    read_manifest,
    synth_blur,
    synth_rain,
    synthesize_sample,
)
from taylor_restore.ppm import read_ppm
from taylor_restore.prng import SplitMix64, derive_stream


def make_clean(size=24, seed=5):
    return generate_clean(size, size, seed)


def rain(clean, seed, **kwargs):
    return synth_rain(clean, RainParams(**kwargs), seed)


def blur(clean, seed, **kwargs):
    return synth_blur(clean, BlurParams(**kwargs), seed)


# --- clean image generator ----------------------------------------------------

def test_generate_clean_range_and_shape():
    img = generate_clean(20, 28, 9)
    assert img.shape == (3, 20, 28)
    assert float(img.min()) == pytest.approx(0.05, abs=1e-9)
    assert float(img.max()) == pytest.approx(0.95, abs=1e-9)


def generate_clean_whole_image(height, width, seed):
    """generate_clean as whole-image array expressions: each octave upsampled over the whole
    grid at once, then normalized out of place."""
    rng = SplitMix64(seed)
    image = np.zeros((3, height, width))
    for grid_size, amplitude in ((4, 1.0), (8, 0.5), (16, 0.25)):
        coarse = rng.uniforms(3 * grid_size * grid_size).reshape(3, grid_size, grid_size)
        ys = np.linspace(0.0, grid_size - 1.0, height)
        xs = np.linspace(0.0, grid_size - 1.0, width)
        y0 = np.minimum(ys.astype(int), grid_size - 2)
        x0 = np.minimum(xs.astype(int), grid_size - 2)
        fy = (ys - y0)[None, :, None]
        fx = (xs - x0)[None, None, :]
        top = coarse[:, y0][:, :, x0] * (1.0 - fx) + coarse[:, y0][:, :, x0 + 1] * fx
        bottom = coarse[:, y0 + 1][:, :, x0] * (1.0 - fx) + coarse[:, y0 + 1][:, :, x0 + 1] * fx
        image += amplitude * (top * (1.0 - fy) + bottom * fy)
    lo, hi = image.min(), image.max()
    if hi > lo:
        return (image - lo) / (hi - lo) * 0.9 + 0.05
    return np.full_like(image, 0.5)


@pytest.mark.parametrize("height, width", [(1, 1), (2, 3), (45, 45), (64, 64), (100, 100),
                                           (128, 128), (300, 200), (45, 1000)])
def test_generate_clean_in_row_bands_equals_the_whole_image_formula(height, width):
    """Byte for byte, also where the image spans several bands (the last two shapes)."""
    for seed in range(5):
        assert np.array_equal(generate_clean(height, width, seed),
                              generate_clean_whole_image(height, width, seed))


def test_generate_clean_is_deterministic():
    a = generate_clean(16, 16, 3)
    b = generate_clean(16, 16, 3)
    c = generate_clean(16, 16, 4)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


# --- rain ----------------------------------------------------------------------

def test_rain_zero_streaks_is_identity():
    clean = make_clean()
    assert np.array_equal(rain(clean, 7, count_min=0, count_max=0), clean)


def test_rain_never_darkens_a_pixel():
    clean = make_clean()
    degraded = rain(clean, 11)
    assert np.all(degraded >= clean)
    assert np.any(degraded > clean)


def test_rain_is_clamped_to_the_unit_range():
    clean = make_clean()
    degraded = rain(clean, 13, intensity_min=2.0, intensity_max=2.0)
    assert degraded.min() >= 0.0 and degraded.max() == 1.0


def test_rain_is_deterministic_per_seed():
    clean = make_clean()
    a = rain(clean, 21)
    b = rain(clean, 21)
    c = rain(clean, 22)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_rain_adds_one_field_to_every_channel():
    degraded = rain(np.full((3, 24, 24), 0.3), 31)
    assert np.any(degraded > 0.3)
    assert np.array_equal(degraded[0], degraded[1])
    assert np.array_equal(degraded[0], degraded[2])


def test_rain_params_validation():
    with pytest.raises(ValueError):
        RainParams(count_min=5, count_max=2)
    with pytest.raises(ValueError):
        RainParams(count_min=-1, count_max=2)
    with pytest.raises(ValueError):
        RainParams(streak_sigma=0.0)


# --- blur kernels ---------------------------------------------------------------

def test_box_kernel_is_uniform():
    kernel = make_blur_kernel(BlurParams(kernel_kind="box", kernel_size=3))
    assert np.allclose(kernel, np.full((3, 3), 1.0 / 9.0), atol=1e-15, rtol=0)


def test_gaussian_kernel_mass_and_symmetry():
    kernel = make_blur_kernel(
        BlurParams(kernel_kind="gaussian", kernel_size=9, sigma=1.5))
    assert abs(float(kernel.sum()) - 1.0) <= 1e-12
    assert float(kernel.min()) >= 0.0
    assert np.allclose(kernel, kernel[::-1, ::-1], atol=1e-15, rtol=0)
    assert kernel[4, 4] == float(kernel.max())


def test_tiny_sigma_collapses_to_delta():
    kernel = make_blur_kernel(
        BlurParams(kernel_kind="gaussian", kernel_size=5, sigma=0.4))
    expected = np.zeros((5, 5))
    expected[2, 2] = 1.0
    assert np.array_equal(kernel, expected)


def test_motion_kernel_edge_cases():
    delta = make_blur_kernel(
        BlurParams(kernel_kind="linear_motion", kernel_size=5, motion_length=1.0))
    expected = np.zeros((5, 5))
    expected[2, 2] = 1.0
    assert np.array_equal(delta, expected)

    with pytest.raises(ValueError, match="exceeds kernel size"):
        BlurParams(kernel_kind="linear_motion", kernel_size=5, motion_length=9.0)
    # a motion length only binds the motion kernel
    BlurParams(kernel_kind="gaussian", kernel_size=5, motion_length=9.0)


def test_kernel_size_must_be_odd_positive():
    for size in (4, -3, 0):
        with pytest.raises(ValueError, match="odd and positive"):
            BlurParams(kernel_kind="box", kernel_size=size)


def test_unknown_kernel_kind_rejected():
    with pytest.raises(ValueError):
        BlurParams(kernel_kind="median", kernel_size=3)


@given(kind=st.sampled_from(["box", "gaussian", "linear_motion"]),
       size=st.sampled_from([1, 3, 5, 7, 9, 11]),
       sigma=st.floats(0.1, 4.0),
       length=st.floats(0.5, 11.0),
       angle=st.floats(0.0, 360.0))
def test_kernel_mass_is_always_one(kind, size, sigma, length, angle):
    assume(kind != "linear_motion" or length <= size)
    kernel = make_blur_kernel(BlurParams(kernel_kind=kind, kernel_size=size,
                                         sigma=sigma, motion_length=length,
                                         motion_angle=angle))
    assert kernel.shape == (size, size)
    assert abs(float(kernel.sum()) - 1.0) <= 1e-12
    assert float(kernel.min()) >= 0.0


# --- blur synthesis --------------------------------------------------------------

def test_noiseless_delta_blur_is_identity():
    clean = make_clean()
    assert np.array_equal(blur(clean, 3, kernel_kind="gaussian", sigma=0.3, noise_sigma=0.0),
                          clean)


def correlate_replicate_bruteforce(image, kernel):
    """Per-pixel 'same' correlation with replicate edges, written as plain loops: each tap
    reads the nearest in-image pixel to its offset position."""
    channels, height, width = image.shape
    size = len(kernel)
    radius = size // 2
    out = np.zeros(image.shape)
    for c in range(channels):
        for y in range(height):
            for x in range(width):
                acc = 0.0
                for i in range(size):
                    for j in range(size):
                        src_y = min(max(y + i - radius, 0), height - 1)
                        src_x = min(max(x + j - radius, 0), width - 1)
                        acc += float(kernel[i][j]) * float(image[c, src_y, src_x])
                out[c, y, x] = acc
    return out


@pytest.mark.parametrize("kind", ["box", "gaussian", "linear_motion"])
@pytest.mark.parametrize("size, shape", [(1, (3, 11, 13)), (3, (3, 11, 13)), (9, (3, 11, 13)),
                                         (9, (3, 4, 5)), (9, (3, 1, 1))])
def test_noiseless_blur_matches_the_loop_oracle(kind, size, shape):
    """Kernels as large as the image or larger read only replicated edge pixels past it."""
    params = BlurParams(kernel_kind=kind, kernel_size=size, sigma=1.5,
                        motion_length=min(7.0, size), motion_angle=30.0, noise_sigma=0.0)
    clean = rand_array(size, shape, 0.0, 1.0)
    expected = correlate_replicate_bruteforce(clean, make_blur_kernel(params))
    assert np.allclose(synth_blur(clean, params, 4), expected, atol=1e-13, rtol=0)


def test_blur_preserves_constant_images():
    # replicate-edge padding makes blurring exact on constants
    clean = np.full((3, 20, 20), 0.42)
    degraded = blur(clean, 5, kernel_kind="gaussian", sigma=1.5, noise_sigma=0.0)
    assert np.allclose(degraded, 0.42, atol=1e-12, rtol=0)


def test_blur_is_deterministic_and_noise_uses_seed():
    clean = make_clean()
    a = blur(clean, 8, noise_sigma=0.05)
    b = blur(clean, 8, noise_sigma=0.05)
    c = blur(clean, 9, noise_sigma=0.05)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


# --- dispatch ---------------------------------------------------------------------

def test_synthesize_sample_dispatches_on_kind():
    clean = make_clean()
    rain_params, blur_params = RainParams(count_min=2), BlurParams(kernel_kind="box")
    for kind, expected in (("rain", synth_rain(clean, rain_params, 4)),
                           ("blur", synth_blur(clean, blur_params, 4))):
        spec = DegradationSpec(kind=kind, seed=4, rain=rain_params, blur=blur_params)
        assert synthesize_sample(clean, spec).tobytes() == expected.tobytes(), kind
    assert DegradationSpec(kind="blur").rain == RainParams()
    with pytest.raises(ValueError):
        DegradationSpec(kind="fog", seed=1)


# --- corpus on disk -----------------------------------------------------------------

def test_corpus_layout_and_manifest(tmp_path):
    out = write_rain_corpus(tmp_path / "corpus", count=3, size=24, seed=6)
    for i in range(3):
        assert (out / f"clean_{i:06d}.ppm").exists()
        assert (out / f"degraded_{i:06d}.ppm").exists()
    manifest = (out / "manifest.tsv").read_text().splitlines()
    assert manifest[0].startswith("index\tclean\tdegraded\tkind\tseed")
    assert len(manifest) == 4
    entries = read_manifest(out / "manifest.tsv")
    assert [e.index for e in entries] == [0, 1, 2]
    assert entries[0].kind == "rain"
    assert entries[0].clean_file == "clean_000000.ppm"
    assert entries[1].seed == derive_stream(6, 1)  # per-sample degradation seed


@pytest.mark.parametrize("kind, columns, values", [
    ("rain", "count_min count_max length_min length_max angle_min angle_max intensity_min "
     "intensity_max streak_sigma", "4 10 8.0 20.0 70.0 110.0 0.15 0.6 0.7"),
    ("blur", "kernel_kind kernel_size sigma motion_length motion_angle noise_sigma",
     "gaussian 9 1.5 7.0 0.0 0.01"),
])
def test_manifest_provenance_columns_are_the_param_fields(tmp_path, kind, columns, values):
    """The columns after the seed name the fields of the kind's params and hold their values."""
    out = make_corpus([generate_clean(12, 12, 1)], DegradationSpec(kind=kind), tmp_path / "c")
    header, row = (out / "manifest.tsv").read_text().splitlines()
    assert header.split("\t")[5:] == columns.split()
    assert row.split("\t")[5:] == values.split()


def test_make_corpus_writes_each_clean_image_before_drawing_the_next(tmp_path):
    """A generator of clean images is consumed one image at a time: image i's pair is on disk
    when image i + 1 is drawn, and image i is garbage by the time image i + 2 is drawn."""
    out = tmp_path / "c"
    refs = []

    def cleans():
        for i in range(5):
            if i >= 1:
                assert (out / f"degraded_{i - 1:06d}.ppm").is_file()
            if i >= 2:
                assert refs[i - 2]() is None, f"image {i - 2} alive when image {i} is drawn"
            image = generate_clean(12, 12, i)
            refs.append(weakref.ref(image))
            yield image

    make_corpus(cleans(), DegradationSpec(kind="rain"), out)
    assert len(read_manifest(out / "manifest.tsv")) == 5


def test_make_corpus_without_images_writes_no_manifest(tmp_path):
    with pytest.raises(ValueError, match="at least one clean image"):
        make_corpus(iter(()), DegradationSpec(kind="blur"), tmp_path / "c")
    assert not (tmp_path / "c" / "manifest.tsv").exists()


def test_corpus_regeneration_is_byte_identical(tmp_path):
    a = write_rain_corpus(tmp_path / "a", count=4, size=20, seed=9)
    b = write_rain_corpus(tmp_path / "b", count=4, size=20, seed=9)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_corpus_seed_changes_content(tmp_path):
    a = write_rain_corpus(tmp_path / "a", count=2, size=20, seed=1)
    b = write_rain_corpus(tmp_path / "b", count=2, size=20, seed=2)
    assert (a / "degraded_000000.ppm").read_bytes() \
        != (b / "degraded_000000.ppm").read_bytes()


def test_corpus_prefix_is_stable_under_count(tmp_path):
    # sample i depends only on the corpus seed and i, not on the total count
    small = write_rain_corpus(tmp_path / "small", count=2, size=20, seed=12)
    large = write_rain_corpus(tmp_path / "large", count=5, size=20, seed=12)
    for i in range(2):
        for prefix in ("clean", "degraded"):
            name = f"{prefix}_{i:06d}.ppm"
            assert (small / name).read_bytes() == (large / name).read_bytes()


def test_corpus_clean_files_are_quantised_cleans(tmp_path):
    out = write_rain_corpus(tmp_path / "c", count=1, size=20, seed=15)
    stored = read_ppm(out / "clean_000000.ppm") / 255.0
    raw = generate_clean(20, 20, corpus_clean_seed(15, 0))
    snapped = np.floor(raw * 255.0 + 0.5) / 255.0
    assert float(np.abs(stored - snapped).max()) <= 1e-12


def test_degraded_pairs_with_stored_clean(tmp_path):
    # re-degrading the stored clean with the manifest seed reproduces the
    # stored degraded image exactly (after the same 8-bit snap)
    out = write_rain_corpus(tmp_path / "c", count=2, size=24, seed=18)
    for entry in read_manifest(out / "manifest.tsv"):
        clean = read_ppm(out / entry.clean_file) / 255.0
        degraded = read_ppm(out / entry.degraded_file) / 255.0
        resynth = rain(clean, entry.seed)
        requantised = np.floor(resynth * 255.0 + 0.5) / 255.0
        assert float(np.abs(degraded - requantised).max()) <= 1e-12


# --- layering -------------------------------------------------------------------------

@pytest.mark.parametrize("module", ["ppm.py", "degrade.py"])
def test_image_modules_stay_off_the_tape(module):
    """Images carry no gradient: the file and degradation modules neither import the autodiff
    package nor name its Tensor."""
    path = Path(taylor_restore.__file__).parent / module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "autodiff" not in (node.module or ""), f"{module}:{node.lineno}"
            assert "Tensor" not in [alias.name for alias in node.names], f"{module}:{node.lineno}"
        elif isinstance(node, ast.Import):
            assert not any("autodiff" in alias.name for alias in node.names), module
        elif isinstance(node, ast.Name):
            assert node.id != "Tensor", f"{module}:{node.lineno}"
        elif isinstance(node, ast.Attribute):
            assert node.attr != "Tensor", f"{module}:{node.lineno}"
