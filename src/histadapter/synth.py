"""Procedural multi-domain bona fide / attack image generator.

Bona fide examples are smooth, face-like radial blob textures. Attacks
composite a class-consistent high-frequency artifact on top of the same
texture family: a moire interference pattern (display replay) for even
example indices and a halftone dot raster (print) for odd ones, both with
periods of 3-4 pixels so a 3x3 neighborhood can sense them at 32x32.
Domains then differ only in low-level imaging statistics (per-channel
gain, brightness offset, sensor noise, blur), never in artifact geometry.

Everything is deterministic given seeds; train / test / few-shot / val
material comes from disjoint generator streams, so example ids never
collide across splits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from histadapter.autodiff import Tensor

__all__ = [
    "DomainStyle",
    "DomainBatch",
    "SynthProtocol",
    "ProtocolSplit",
    "style_bank",
    "generate",
    "training_set",
    "held_out_set",
    "split_protocol",
    "source_validation",
    "dump_dataset",
    "highpass_variance_scores",
]

TRAIN_STREAM, TEST_STREAM, FEWSHOT_STREAM, VAL_STREAM = 0, 1, 2, 3


@dataclass(frozen=True)
class DomainStyle:
    """Low-level imaging statistics that define one capture domain."""

    color_gain: tuple = (1.0, 1.0, 1.0)
    brightness_offset: float = 0.0
    noise_sigma: float = 0.01
    blur_radius: int = 0
    seed: int = 0

    def __post_init__(self):
        if min(self.color_gain) <= 0:
            raise ValueError(f"color gains must be positive, got {self.color_gain}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.noise_sigma}")
        if self.blur_radius < 0:
            raise ValueError(f"blur radius must be >= 0, got {self.blur_radius}")


@dataclass
class DomainBatch:
    """Images (B, 3, S, S) with labels (0 = bona fide, 1 = attack) and domain ids."""

    images: Tensor
    labels: np.ndarray
    domain_ids: np.ndarray
    example_ids: list = field(default_factory=list)

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass
class SynthProtocol:
    """Leave-one-domain-out protocol, optionally with k-shot target data."""

    domains: list
    held_out: int
    few_shot_k: int = 0

    def __post_init__(self):
        if not 0 <= self.held_out < len(self.domains):
            raise ValueError(
                f"held_out {self.held_out} out of range for {len(self.domains)} domains"
            )
        if self.few_shot_k < 0:
            raise ValueError(f"few_shot_k must be >= 0, got {self.few_shot_k}")

    @property
    def source_indices(self) -> list:
        return [i for i in range(len(self.domains)) if i != self.held_out]


@dataclass
class ProtocolSplit:
    train: DomainBatch
    test: DomainBatch


_CANONICAL_STYLES = (
    dict(color_gain=(1.00, 1.00, 1.00), brightness_offset=0.00, noise_sigma=0.010, blur_radius=0),
    dict(color_gain=(1.35, 0.85, 0.75), brightness_offset=0.08, noise_sigma=0.025, blur_radius=0),
    dict(color_gain=(0.65, 0.85, 1.30), brightness_offset=-0.08, noise_sigma=0.035, blur_radius=1),
    dict(color_gain=(0.80, 1.10, 1.15), brightness_offset=0.14, noise_sigma=0.030, blur_radius=0),
)


def style_bank(num_domains: int, base_seed: int = 7) -> list:
    """Deterministic roster of domain styles; the first four are hand-tuned."""
    if num_domains < 1:
        raise ValueError(f"num_domains must be at least 1, got {num_domains}")
    if base_seed < 0:
        raise ValueError(f"style seed must be >= 0, got {base_seed}")
    styles = []
    rng = np.random.default_rng(np.random.SeedSequence([23, base_seed]))
    for i in range(num_domains):
        if i < len(_CANONICAL_STYLES):
            params = dict(_CANONICAL_STYLES[i])
        else:
            params = dict(
                color_gain=tuple(np.round(rng.uniform(0.7, 1.3, 3), 3)),
                brightness_offset=float(np.round(rng.uniform(-0.1, 0.15), 3)),
                noise_sigma=float(np.round(rng.uniform(0.005, 0.03), 4)),
                blur_radius=int(rng.integers(0, 2)),
            )
        styles.append(DomainStyle(seed=base_seed + 101 * i, **params))
    return styles


# one chunk of images is batched at a time: 16 at 32 px, 1 at 224 px
_CHUNK_PIXELS = 16 * 32 * 32


def _uniform(r, lo: float, hi: float):
    """``rng.uniform(lo, hi)``, bit for bit, from the ``rng.random()`` draws ``r``."""
    return lo + (hi - lo) * r


def _binomial_blur(img: np.ndarray, quarter: np.ndarray) -> None:
    """One in-place [1, 2, 1]/4 pass per spatial axis, edges replicated; ``quarter`` is scratch."""
    for axis in (-2, -1):
        np.multiply(img, 0.25, out=quarter)
        img *= 0.5
        rows, quarters = np.moveaxis(img, axis, 0), np.moveaxis(quarter, axis, 0)
        rows[1:] += quarters[:-1]
        rows[0] += quarters[0]
        rows[:-1] += quarters[1:]
        rows[-1] += quarters[-1]


def _chunk(rng: np.random.Generator, style: DomainStyle, out: np.ndarray, first_attack,
           scratch) -> None:
    """Fills ``out`` (n, 3, S, S) with bona fide images, or with attacks from index
    ``first_attack`` on. All of the chunk's draws come first, one image after
    another; the pixel math then runs on the whole chunk, in ``out`` and in
    ``scratch``'s noise, field and quarter buffers, (>= n, 3, S, S) each.
    """
    n, side = out.shape[0], out.shape[-1]
    noise, field_, quarter = (buf[:n] for buf in scratch)
    u, coarse = np.empty((n, 19)), np.empty((n, 3, 4, 4))
    periods, art = np.empty((n, 2)), np.empty((n, 6))
    for k in range(n):
        u[k] = rng.random(19)
        coarse[k] = rng.normal(0.0, 0.08, (3, 4, 4))
        if first_attack is not None:
            moire = (first_attack + k) % 2 == 0  # else halftone, with one period
            periods[k] = rng.integers(3, 5, size=2) if moire else int(rng.integers(3, 5))
            art[k] = rng.random(6)
        if style.noise_sigma > 0:
            noise[k] = rng.normal(0.0, style.noise_sigma, (3, side, side))

    grid = np.arange(side) / side
    base = np.array([0.55, 0.45, 0.40]) + _uniform(u[:, 0:3], -0.05, 0.05)
    cx, cy = (0.5 + _uniform(u[:, 3:5], -0.08, 0.08)).T
    ax = 0.30 + _uniform(u[:, 5:6], 0.0, 0.10)
    ay = 0.36 + _uniform(u[:, 6:7], 0.0, 0.10)
    # each image term is a sum of an x term and a y term, computed once per row or column
    blob = np.exp(-((((grid - cx[:, None]) / ax) ** 2)[:, None, :]
                    + (((grid - cy[:, None]) / ay) ** 2)[:, :, None]))
    np.multiply(base[:, :, None, None], blob[:, None], out=out)
    out += 0.12
    for s in range(7, 19, 4):
        fx = cx + _uniform(u[:, s], -0.15, 0.15)
        fy = cy + _uniform(u[:, s + 1], -0.18, 0.18)
        # a Python float's ** 2 is libm pow, which is not always x * x
        fr2 = np.array([fr ** 2 for fr in _uniform(u[:, s + 2], 0.04, 0.09).tolist()])
        spot = np.exp(-((((grid - fx[:, None]) ** 2)[:, None, :]
                         + ((grid - fy[:, None]) ** 2)[:, :, None]) / fr2[:, None, None]))
        out -= (_uniform(u[:, s + 3], 0.10, 0.25)[:, None, None] * spot)[:, None]
    # the coarse 4 x 4 field, each cell repeated over a (S/4, S/4) block
    rep = side // 4
    field_.reshape(n, 3, 4, rep, 4, rep)[...] = coarse[:, :, :, None, :, None]
    _binomial_blur(field_, quarter)
    _binomial_blur(field_, quarter)
    out += field_

    if first_attack is not None:
        moire = (first_attack + np.arange(n)) % 2 == 0
        phase = _uniform(art[:, 0:2], 0.0, 2.0 * np.pi)
        arg = 2 * np.pi * np.arange(side) / periods[:, :, None] + phase[:, :, None]
        wave = np.where(moire[:, None, None], np.sin(arg), np.cos(arg))
        pattern = wave[:, 0, None, :] * wave[:, 1, :, None]
        dots = (pattern > 0.2).astype(np.float64)
        dots -= dots.mean(axis=(1, 2), keepdims=True)
        pattern = np.where(moire[:, None, None], pattern, dots)
        amp = np.where(moire, _uniform(art[:, 2], 0.18, 0.26), _uniform(art[:, 2], 0.20, 0.28))
        weights = 1.0 + _uniform(art[:, 3:6], -0.15, 0.15)
        out += np.multiply((amp[:, None] * weights)[:, :, None, None], pattern[:, None],
                           out=field_)

    out *= np.asarray(style.color_gain)[:, None, None]
    out += style.brightness_offset
    if style.noise_sigma > 0:
        out += noise
    for _ in range(style.blur_radius):
        _binomial_blur(out, quarter)
    np.clip(out, 0.0, 1.0, out=out)


def _draw(parts, side: int) -> DomainBatch:
    """One set drawn in place: ``parts`` lists (style, n_per_class, domain_id,
    stream), and each part's bona fide then attack examples fill its own rows
    of one array allocated for the whole set. Every chunk of images reuses the
    draw's three scratch buffers for its noise, coarse field and blur.
    """
    if side < 4 or side % 4:
        raise ValueError(f"side must be a positive multiple of 4, got {side}")
    counts = [n for _, n, _, _ in parts]
    if min(counts) < 1:
        raise ValueError(f"n_per_class must be >= 1, got {min(counts)}")
    images = np.empty((2 * sum(counts), 3, side, side))
    chunk = max(1, _CHUNK_PIXELS // side ** 2)
    # not one block: a freed 3.6 MB block (224 px) lifts glibc's mmap threshold for good
    scratch = [np.empty((chunk, 3, side, side)) for _ in range(3)]
    ids, start = [], 0
    for style, n, domain_id, stream in parts:
        rng = np.random.default_rng(np.random.SeedSequence([style.seed, stream]))
        bona_fide, attacks = images[start:start + n], images[start + n:start + 2 * n]
        for first in range(0, n, chunk):
            _chunk(rng, style, bona_fide[first:first + chunk], None, scratch)
        for first in range(0, n, chunk):
            _chunk(rng, style, attacks[first:first + chunk], first, scratch)
        ids += [f"d{domain_id}-s{stream}-{kind}-{i}"
                for kind in ("bona", "attack") for i in range(n)]
        start += 2 * n
    labels = np.repeat(np.tile(np.array([0, 1], dtype=np.intp), len(parts)), np.repeat(counts, 2))
    domain_ids = np.repeat(np.array([d for _, _, d, _ in parts], dtype=np.intp),
                           2 * np.array(counts))
    return DomainBatch(Tensor(images), labels, domain_ids, ids)


def generate(style: DomainStyle, n_per_class: int, side: int = 32,
             domain_id: int = 0, stream: int = TRAIN_STREAM) -> DomainBatch:
    """Draw ``n_per_class`` bona fide and attack examples for one domain.

    ``stream`` selects an independent substream of the style's generator,
    which keeps train / test / few-shot material disjoint by construction.
    The stream is read one image at a time, bona fide images first: a
    texture's 19 uniforms, its coarse field's 48 normals, an attack's
    artifact draws, then the style's noise. The pixel math runs batched over
    chunks of images, so an image does not depend on the chunking.
    """
    return _draw([(style, n_per_class, domain_id, stream)], side)


def training_set(protocol: SynthProtocol, train_per_class: int, side: int = 32,
                 min_source_domains: int = 1) -> DomainBatch:
    """Training material over the source domains. With ``few_shot_k > 0``, k bona fide and
    k attack examples of the held-out domain join it, from a stream disjoint from the test's."""
    sources = protocol.source_indices
    if len(sources) < min_source_domains:
        need = "style regularization needs two" if min_source_domains > 1 else "training needs one"
        raise ValueError(f"protocol has {len(sources)} source domains, need >= "
                         f"{min_source_domains} ({need})")
    parts = [(protocol.domains[i], train_per_class, i, TRAIN_STREAM) for i in sources]
    if protocol.few_shot_k > 0:
        parts.append((protocol.domains[protocol.held_out], protocol.few_shot_k,
                      protocol.held_out, FEWSHOT_STREAM))
    return _draw(parts, side)


def held_out_set(protocol: SynthProtocol, test_per_class: int, side: int = 32) -> DomainBatch:
    """Test material from the held-out domain."""
    return generate(protocol.domains[protocol.held_out], test_per_class, side,
                    domain_id=protocol.held_out, stream=TEST_STREAM)


def split_protocol(protocol: SynthProtocol, train_per_class: int, test_per_class: int,
                   side: int = 32) -> ProtocolSplit:
    """:func:`training_set` and :func:`held_out_set` together."""
    return ProtocolSplit(train=training_set(protocol, train_per_class, side),
                         test=held_out_set(protocol, test_per_class, side))


def source_validation(protocol: SynthProtocol, n_per_class: int, side: int = 32) -> DomainBatch:
    """Fresh source-domain examples used only for threshold selection."""
    if not protocol.source_indices:
        raise ValueError("protocol has 0 source domains, need >= 1 (validation needs one)")
    return _draw([(protocol.domains[i], n_per_class, i, VAL_STREAM)
                  for i in protocol.source_indices], side)


def dump_dataset(batch: DomainBatch, out_dir) -> Path:
    """Write 8-bit PPM images plus a ``manifest.csv`` of (path, label, domain)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "domain"])
        for i in range(len(batch)):
            name = f"{batch.example_ids[i]}.ppm"
            img = batch.images.data[i]
            eight_bit = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
            h, w = eight_bit.shape[1], eight_bit.shape[2]
            with (out_dir / name).open("wb") as img_fh:
                img_fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
                img_fh.write(eight_bit.transpose(1, 2, 0).tobytes())
            writer.writerow([name, int(batch.labels[i]), int(batch.domain_ids[i])])
    return manifest


def highpass_variance_scores(batch: DomainBatch) -> np.ndarray:
    """Pixel-statistics baseline: variance of a Laplacian high-pass response.

    Exists to certify that the synthetic attacks are detectable at all; a
    within-domain AUC above 0.9 means the task is learnable.
    """
    images = batch.images.data
    gray = images.mean(axis=1)
    padded = np.pad(gray, ((0, 0), (1, 1), (1, 1)), mode="edge")
    lap = (4.0 * padded[:, 1:-1, 1:-1]
           - padded[:, :-2, 1:-1] - padded[:, 2:, 1:-1]
           - padded[:, 1:-1, :-2] - padded[:, 1:-1, 2:])
    return lap.var(axis=(1, 2))
