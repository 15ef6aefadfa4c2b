"""Synthetic degradation: rain streaks, blur + noise, and corpus files.

Rain adds a non-negative field of oriented line segments with Gaussian
cross-section to every channel; blur convolves with a normalized kernel
(replicate-edge padding, correlation orientation) and adds Gaussian noise.
Either result is clamped to [0, 1]. The blur is a fixed-order tap
accumulation: each of the k*k weighted shifts of the padded image is added in
row-major tap order, so its memory is O(image) whatever k is, and it makes no
BLAS call, so its bits do not depend on the BLAS thread count.

Every sample is generated from its own seed,
derive_stream(spec.seed, sample_index), so corpus content depends only on
(spec, index) -- never on generation order. Per-streak draws happen in a
fixed documented order: center x, center y, length, angle, intensity.
Angles are degrees; 0 points along +x (columns), 90 along +y (rows).

A corpus directory holds clean_%06d.ppm / degraded_%06d.ppm pairs plus
manifest.tsv (index, files, kind, per-sample seed, then the fields of the
active RainParams or BlurParams as provenance columns). Clean inputs are
quantized to the 8-bit grid before degradation so the pair on disk is exactly
degrade(clean). Images are plain (C, H, W) float64 arrays throughout; a
corpus is written one pair per clean image as the images arrive, so writing
it holds one image at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .errors import FormatError
from .ppm import write_ppm
from .prng import SplitMix64, derive_stream

KIND_RAIN = "rain"
KIND_BLUR = "blur"
KINDS = (KIND_RAIN, KIND_BLUR)

KERNEL_BOX = "box"
KERNEL_GAUSSIAN = "gaussian"
KERNEL_LINEAR_MOTION = "linear_motion"
KERNEL_KINDS = (KERNEL_BOX, KERNEL_GAUSSIAN, KERNEL_LINEAR_MOTION)

_CLEAN_STREAM_TAG = 0x636C65616E  # distinct child-stream family for clean images
_BAND_PIXELS = 1 << 14  # per channel, in one row band of generate_clean's upsampling


def _require_finite(params: "RainParams | BlurParams", squared: tuple[str, ...] = ()) -> None:
    """Refuse a float field that is not finite, or one in `squared` whose doubled square is not:
    the synthesis squares those (a streak's length and width), and an overflow there would
    write NaN pixels."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "float" and not math.isfinite(
                2.0 * value * value if f.name in squared else value):
            kind = "too large to square" if math.isfinite(value) else "not finite"
            raise ValueError(f"{f.name} is {kind}, got {value!r}")


@dataclass(frozen=True)
class RainParams:
    count_min: int = 4
    count_max: int = 10
    length_min: float = 8.0
    length_max: float = 20.0
    angle_min: float = 70.0
    angle_max: float = 110.0
    intensity_min: float = 0.15
    intensity_max: float = 0.6
    streak_sigma: float = 0.7

    def __post_init__(self):
        _require_finite(self, squared=("length_min", "length_max", "streak_sigma"))
        if self.count_min < 0 or self.count_max < self.count_min:
            raise ValueError(
                f"streak count range [{self.count_min}, {self.count_max}] is invalid"
            )
        if self.intensity_min < 0:
            raise ValueError(f"intensity must be >= 0, got {self.intensity_min}")
        if self.streak_sigma <= 0:
            raise ValueError(f"streak sigma must be positive, got {self.streak_sigma}")


@dataclass(frozen=True)
class BlurParams:
    kernel_kind: str = KERNEL_GAUSSIAN
    kernel_size: int = 9
    sigma: float = 1.5
    motion_length: float = 7.0
    motion_angle: float = 0.0
    noise_sigma: float = 0.01

    def __post_init__(self):
        _require_finite(self)
        if self.kernel_kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kernel_kind!r}")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ValueError(f"kernel size must be odd and positive, got {self.kernel_size}")
        if self.kernel_kind == KERNEL_LINEAR_MOTION and self.motion_length > self.kernel_size:
            raise ValueError(
                f"motion length {self.motion_length} exceeds kernel size {self.kernel_size}"
            )
        if self.noise_sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class DegradationSpec:
    kind: str = KIND_RAIN
    seed: int = 0
    rain: RainParams = field(default_factory=RainParams)
    blur: BlurParams = field(default_factory=BlurParams)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


def _segment_offsets(xs: np.ndarray, ys: np.ndarray, ax: float, ay: float,
                     bx: float, by: float) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) offsets of the points (xs, ys) from their nearest points on
    the segment a-b (a single point when a == b)."""
    seg_x, seg_y = bx - ax, by - ay
    seg_len_sq = seg_x * seg_x + seg_y * seg_y
    rel_x, rel_y = xs - ax, ys - ay
    if seg_len_sq > 0.0:
        t = np.clip((rel_x * seg_x + rel_y * seg_y) / seg_len_sq, 0.0, 1.0)
    else:
        t = np.zeros_like(rel_x)
    return rel_x - t * seg_x, rel_y - t * seg_y


def _streak_field(height: int, width: int, params: RainParams, rng: SplitMix64) -> np.ndarray:
    streaks = np.zeros((height, width))
    span = params.count_max - params.count_min + 1
    count = params.count_min + rng.randint(span)
    two_sigma_sq = 2.0 * params.streak_sigma * params.streak_sigma
    margin = 3.0 * params.streak_sigma + 1.0
    for _ in range(count):
        cx = rng.uniform(0.0, float(width))
        cy = rng.uniform(0.0, float(height))
        length = rng.uniform(params.length_min, params.length_max)
        angle = np.deg2rad(rng.uniform(params.angle_min, params.angle_max))
        intensity = rng.uniform(params.intensity_min, params.intensity_max)
        half = length / 2.0
        dx, dy = np.cos(angle) * half, np.sin(angle) * half
        ax, ay, bx, by = cx - dx, cy - dy, cx + dx, cy + dy
        x0 = max(int(np.floor(min(ax, bx) - margin)), 0)
        x1 = min(int(np.ceil(max(ax, bx) + margin)) + 1, width)
        y0 = max(int(np.floor(min(ay, by) - margin)), 0)
        y1 = min(int(np.ceil(max(ay, by) + margin)) + 1, height)
        if x0 >= x1 or y0 >= y1:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        dist_x, dist_y = _segment_offsets(xs, ys, ax, ay, bx, by)
        dist_sq = dist_x * dist_x + dist_y * dist_y
        streaks[y0:y1, x0:x1] += intensity * np.exp(-dist_sq / two_sigma_sq)
    return streaks


def synth_rain(clean: np.ndarray, params: RainParams, seed: int) -> np.ndarray:
    """clean plus one non-negative oriented-streak field in every channel, clamped."""
    _, height, width = clean.shape
    streaks = _streak_field(height, width, params, SplitMix64(seed))
    return np.clip(clean + streaks, 0.0, 1.0)


def make_blur_kernel(params: BlurParams) -> np.ndarray:
    """Normalized 2-D kernel: box, Gaussian, or anti-aliased linear motion.

    Degenerate limits collapse to a delta kernel explicitly: Gaussian sigma
    below half a pixel, and motion length <= 1.
    """
    size = params.kernel_size
    center = (size - 1) // 2
    if params.kernel_kind == KERNEL_BOX:
        return np.full((size, size), 1.0 / (size * size))
    if params.kernel_kind == KERNEL_GAUSSIAN:
        if params.sigma < 0.5:
            kernel = np.zeros((size, size))
            kernel[center, center] = 1.0
            return kernel
        coords = np.arange(size) - center
        grid = coords[:, None] ** 2 + coords[None, :] ** 2
        kernel = np.exp(-grid / (2.0 * params.sigma * params.sigma))
        return kernel / kernel.sum()
    # linear motion
    length = params.motion_length
    if length <= 1.0:
        kernel = np.zeros((size, size))
        kernel[center, center] = 1.0
        return kernel
    angle = np.deg2rad(params.motion_angle)
    half = (length - 1.0) / 2.0
    ax, ay = center - half * np.cos(angle), center - half * np.sin(angle)
    bx, by = center + half * np.cos(angle), center + half * np.sin(angle)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    dist = np.hypot(*_segment_offsets(xs, ys, ax, ay, bx, by))
    kernel = np.maximum(0.0, 1.0 - dist)  # one-pixel tent cross-section
    return kernel / kernel.sum()


def _correlate_replicate(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Per-channel 'same' correlation with replicate-edge padding, summed tap by tap in
    row-major order through one term buffer: three images of memory whatever k is."""
    _, height, width = image.shape
    size = kernel.shape[0]
    radius = size // 2
    padded = np.pad(image, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    out = np.zeros_like(image)
    term = np.empty_like(image)
    for i in range(size):
        for j in range(size):
            out += np.multiply(padded[:, i:i + height, j:j + width], kernel[i, j], out=term)
    return out


def synth_blur(clean: np.ndarray, params: BlurParams, seed: int) -> np.ndarray:
    """clean blurred with the configured kernel plus Gaussian noise, clamped."""
    blurred = _correlate_replicate(clean, make_blur_kernel(params))
    noise = params.noise_sigma * SplitMix64(seed).gaussians(clean.size).reshape(clean.shape)
    return np.clip(blurred + noise, 0.0, 1.0)


def synthesize_sample(clean: np.ndarray, spec: DegradationSpec) -> np.ndarray:
    """The degraded image of `clean` under spec's kind, parameters and seed."""
    if spec.kind == KIND_RAIN:
        return synth_rain(clean, spec.rain, spec.seed)
    return synth_blur(clean, spec.blur, spec.seed)


def generate_clean(height: int, width: int, seed: int) -> np.ndarray:
    """Procedural clean image: three octaves of bilinear value noise,
    min-max normalized into [0.05, 0.95]; the octaves are added in row bands and
    normalized in place, so no temporary is larger than a band."""
    rng = SplitMix64(seed)
    image = np.zeros((3, height, width))
    band = max(1, _BAND_PIXELS // width)
    for grid_size, amplitude in ((4, 1.0), (8, 0.5), (16, 0.25)):
        coarse = rng.uniforms(3 * grid_size * grid_size).reshape(3, grid_size, grid_size)
        ys = np.linspace(0.0, grid_size - 1.0, height)
        xs = np.linspace(0.0, grid_size - 1.0, width)
        for top in range(0, height, band):
            image[:, top:top + band] += amplitude * _bilinear_sample(coarse, ys[top:top + band], xs)
    lo, hi = image.min(), image.max()
    if hi > lo:
        image -= lo
        image /= hi - lo
        image *= 0.9
        image += 0.05
    else:
        image.fill(0.5)
    return image


def _bilinear_sample(coarse: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """coarse (C, grid, grid), grid >= 2, bilinearly sampled at rows ys and columns xs
    (grid coordinates in [0, grid - 1]) into (C, len(ys), len(xs))."""
    grid = coarse.shape[1]
    y0 = np.minimum(ys.astype(int), grid - 2)
    x0 = np.minimum(xs.astype(int), grid - 2)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]
    v00 = coarse[:, y0][:, :, x0]
    v01 = coarse[:, y0][:, :, x0 + 1]
    v10 = coarse[:, y0 + 1][:, :, x0]
    v11 = coarse[:, y0 + 1][:, :, x0 + 1]
    top = v00 * (1.0 - fx) + v01 * fx
    bottom = v10 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy) + bottom * fy


def corpus_clean_seed(seed: int, index: int) -> int:
    """Seed for the index-th procedural clean image of a corpus."""
    return derive_stream(derive_stream(seed, _CLEAN_STREAM_TAG), index)


@dataclass
class ManifestEntry:
    index: int
    clean_file: str
    degraded_file: str
    kind: str
    seed: int


def _quantize_to_grid(image: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(image, 0.0, 1.0) * 255.0 + 0.5) / 255.0


def make_corpus(cleans: Iterable[np.ndarray], spec: DegradationSpec,
                out_dir: str | Path) -> Path:
    """Write one degraded pair per clean image and a manifest; returns the directory.

    `cleans` is consumed lazily: each image is snapped to the 8-bit grid,
    degraded and written before the next one is drawn, so a generator keeps
    one clean image alive at a time. Sample i uses the i-th image and
    per-sample seed derive_stream(spec.seed, i). An earlier manifest.tsv is
    removed before the first image is written and the new one is put in place
    atomically after the last, so a run that fails or is killed part way
    leaves no manifest over a mix of old and new images. No image at all is a
    ValueError, and leaves no manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = spec.rain if spec.kind == KIND_RAIN else spec.blur
    param_names = [f.name for f in fields(params)]
    param_values = [str(getattr(params, name)) for name in param_names]
    lines = ["\t".join(["index", "clean", "degraded", "kind", "seed"] + param_names)]
    manifest = out_dir / "manifest.tsv"
    manifest.unlink(missing_ok=True)
    for index, image in enumerate(cleans):
        sample_seed = derive_stream(spec.seed, index)
        clean = _quantize_to_grid(image)
        degraded = synthesize_sample(clean, replace(spec, seed=sample_seed))
        clean_name = f"clean_{index:06d}.ppm"
        degraded_name = f"degraded_{index:06d}.ppm"
        write_ppm(clean, out_dir / clean_name)
        write_ppm(degraded, out_dir / degraded_name)
        lines.append("\t".join(
            [str(index), clean_name, degraded_name, spec.kind, str(sample_seed)]
            + param_values
        ))
    if len(lines) == 1:
        raise ValueError("make_corpus needs at least one clean image")
    write_atomic(manifest, ("\n".join(lines) + "\n").encode("ascii"))
    return out_dir


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except FileNotFoundError as exc:
        raise FormatError(f"{path}: manifest not found") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not ASCII ({exc})") from exc
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise FormatError(f"{path}: empty manifest")
    header = lines[0].split("\t")
    if header[:5] != ["index", "clean", "degraded", "kind", "seed"]:
        raise FormatError(f"{path}: unrecognized manifest header")
    entries = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(header):
            raise FormatError(f"{path}:{line_no}: expected {len(header)} fields")
        try:
            entries.append(ManifestEntry(
                index=int(fields[0]), clean_file=fields[1], degraded_file=fields[2],
                kind=fields[3], seed=int(fields[4]),
            ))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: bad numeric field") from exc
    return entries
