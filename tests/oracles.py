"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately written as plain loops over definitions,
sharing no code with the library paths it verifies.
"""

from __future__ import annotations

import numpy as np


def conv2d_loops(x, kernel, bias=None, stride=1, padding=1):
    """Direct summation cross-correlation."""
    cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((cin, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x
    out = np.zeros((cout, h_out, w_out))
    for o in range(cout):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            acc += kernel[o, c, a, b] * xp[c, i * stride + a, j * stride + b]
                out[o, i, j] = acc
        if bias is not None:
            out[o] += bias[o]
    return out


def cdc_difference_loops(x, kernel):
    """Neighbor-minus-center gradient term, per pixel, in-grid neighbors only."""
    cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    out = np.zeros((cout, h, w))
    for o in range(cout):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            pi, pj = i + a - kh // 2, j + b - kw // 2
                            if 0 <= pi < h and 0 <= pj < w:
                                acc += kernel[o, c, a, b] * (x[c, pi, pj] - x[c, i, j])
                out[o, i, j] = acc
    return out


def soft_histogram_loops(z, mu, gamma):
    """Literal windowed soft-bin evaluation with zero-padded taps, divisor 9."""
    c, h, w = z.shape
    zp = np.zeros((c, h + 2, w + 2))
    zp[:, 1:h + 1, 1:w + 1] = z
    out = np.zeros((c, h, w))
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for a in range(3):
                    for b in range(3):
                        u = gamma[ch] * (zp[ch, i + a, j + b] - mu[ch])
                        acc += np.exp(-u * u)
                out[ch, i, j] = acc / 9.0
    return out


def gram_loops(z):
    c, h, w = z.shape
    g = np.zeros((c, c))
    for k in range(c):
        for kp in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += z[k, i, j] * z[kp, i, j]
            g[k, kp] = acc / (c * h * w)
    return g


def tsr_loops(z1, z2):
    d = gram_loops(z1) - gram_loops(z2)
    return float((d * d).sum())


def auc_pairwise(scores, labels):
    """Attack-beats-bona-fide pair counting, ties worth one half."""
    attacks = [s for s, l in zip(scores, labels) if l == 1]
    bona = [s for s, l in zip(scores, labels) if l == 0]
    twice_wins = 0
    for a in attacks:
        for b in bona:
            if a > b:
                twice_wins += 2
            elif a == b:
                twice_wins += 1
    return twice_wins / (2 * len(attacks) * len(bona))


def _rates_at(scores, labels, threshold):
    attacks = [s for s, l in zip(scores, labels) if l == 1]
    bona = [s for s, l in zip(scores, labels) if l == 0]
    far = sum(1 for s in attacks if s < threshold) / len(attacks)
    frr = sum(1 for s in bona if s >= threshold) / len(bona)
    return far, frr


def eer_sweep(scores, labels):
    """Brute-force threshold sweep; crossing located like the spec defines,
    linearly between the bracketing candidate thresholds."""
    candidates = sorted(set(scores), reverse=True)
    candidates = [candidates[0] + 1.0] + candidates
    rates = [_rates_at(scores, labels, t) for t in candidates]
    for t, (far, frr) in zip(candidates, rates):
        if far == frr:
            return far, t
    for i in range(len(candidates) - 1):
        far1, frr1 = rates[i]
        far2, frr2 = rates[i + 1]
        d1, d2 = far1 - frr1, far2 - frr2
        if (d1 > 0) != (d2 > 0):
            frac = (far1 - frr1) / ((far1 - frr1) - (far2 - frr2))
            value = far1 + frac * (far2 - far1)
            threshold = candidates[i] + frac * (candidates[i + 1] - candidates[i])
            return value, threshold
    raise AssertionError("no crossing found")


def hter_counting(scores, labels, threshold):
    far, frr = _rates_at(scores, labels, threshold)
    return (far + frr) / 2.0


def acer_counting(scores, labels, threshold=0.5):
    attacks = [s for s, l in zip(scores, labels) if l == 1]
    bona = [s for s, l in zip(scores, labels) if l == 0]
    apcer = sum(1 for s in attacks if s < threshold) / len(attacks)
    bpcer = sum(1 for s in bona if s >= threshold) / len(bona)
    return apcer, bpcer, (apcer + bpcer) / 2.0


def tpr_at_fpr_sweep(scores, labels, target_fpr):
    """Brute-force ROC over every distinct threshold, the best TPR kept at
    each FPR, then linear interpolation between the bracketing points."""
    n_attack = sum(1 for l in labels if l == 1)
    n_bona = len(labels) - n_attack
    best = {0.0: 0.0}
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, l in zip(scores, labels) if l == 1 and s >= t)
        fp = sum(1 for s, l in zip(scores, labels) if l == 0 and s >= t)
        fpr, tpr = fp / n_bona, tp / n_attack
        best[fpr] = max(best.get(fpr, 0.0), tpr)
    xs = sorted(best)
    if target_fpr <= xs[0]:
        return best[xs[0]] if target_fpr == xs[0] else 0.0
    for x0, x1 in zip(xs, xs[1:]):
        if target_fpr == x1:
            return best[x1]
        if x0 < target_fpr < x1:
            y0, y1 = best[x0], best[x1]
            return y0 + (target_fpr - x0) / (x1 - x0) * (y1 - y0)
    raise AssertionError("target fpr beyond the curve")


# The synthetic-domain generator, one image at a time. Each image's draws are
# made in the stream order `histadapter.synth.generate` promises: the
# texture's 19 uniforms, its coarse field's 48 normals, an attack's artifact
# draws, then the style's noise.

def _binomial_blur(img):
    """One [1, 2, 1]/4 pass along each spatial axis with edge replication."""
    padded = np.pad(img, ((0, 0), (1, 1), (0, 0)), mode="edge")
    img = 0.25 * padded[:, :-2] + 0.5 * padded[:, 1:-1] + 0.25 * padded[:, 2:]
    padded = np.pad(img, ((0, 0), (0, 0), (1, 1)), mode="edge")
    return 0.25 * padded[:, :, :-2] + 0.5 * padded[:, :, 1:-1] + 0.25 * padded[:, :, 2:]


def _smooth_field(rng, side):
    coarse = rng.normal(0.0, 0.08, (3, 4, 4))
    rep = side // 4
    field_ = np.repeat(np.repeat(coarse, rep, axis=1), rep, axis=2)
    for _ in range(2):
        field_ = _binomial_blur(field_)
    return field_


def _bona_fide_texture(rng, side):
    yy, xx = np.mgrid[0:side, 0:side] / side
    base = np.array([0.55, 0.45, 0.40]) + rng.uniform(-0.05, 0.05, 3)
    cx, cy = 0.5 + rng.uniform(-0.08, 0.08, 2)
    ax = 0.30 + rng.uniform(0.0, 0.10)
    ay = 0.36 + rng.uniform(0.0, 0.10)
    blob = np.exp(-(((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2))
    img = base[:, None, None] * blob[None] + 0.12
    for _ in range(3):
        fx = cx + rng.uniform(-0.15, 0.15)
        fy = cy + rng.uniform(-0.18, 0.18)
        fr = rng.uniform(0.04, 0.09)
        spot = np.exp(-(((xx - fx) ** 2 + (yy - fy) ** 2) / fr ** 2))
        img -= rng.uniform(0.10, 0.25) * spot[None]
    return img + _smooth_field(rng, side)


def _moire_pattern(rng, side):
    px, py = rng.integers(3, 5, size=2)
    phx, phy = rng.uniform(0.0, 2.0 * np.pi, 2)
    yy, xx = np.mgrid[0:side, 0:side]
    pattern = np.sin(2 * np.pi * xx / px + phx) * np.sin(2 * np.pi * yy / py + phy)
    amp = rng.uniform(0.18, 0.26)
    weights = 1.0 + rng.uniform(-0.15, 0.15, 3)
    return amp * weights[:, None, None] * pattern[None]


def _halftone_pattern(rng, side):
    p = int(rng.integers(3, 5))
    phx, phy = rng.uniform(0.0, 2.0 * np.pi, 2)
    yy, xx = np.mgrid[0:side, 0:side]
    carrier = np.cos(2 * np.pi * xx / p + phx) * np.cos(2 * np.pi * yy / p + phy)
    dots = (carrier > 0.2).astype(np.float64)
    dots -= dots.mean()
    amp = rng.uniform(0.20, 0.28)
    weights = 1.0 + rng.uniform(-0.15, 0.15, 3)
    return amp * weights[:, None, None] * dots[None]


def _apply_style(img, style, rng):
    img = img * np.asarray(style.color_gain)[:, None, None] + style.brightness_offset
    if style.noise_sigma > 0:
        img = img + rng.normal(0.0, style.noise_sigma, img.shape)
    for _ in range(style.blur_radius):
        img = _binomial_blur(img)
    return np.clip(img, 0.0, 1.0)


def synth_loops(style, n_per_class, side, domain_id, stream):
    """Images, labels, domain ids and example ids of one domain and stream."""
    rng = np.random.default_rng(np.random.SeedSequence([style.seed, stream]))
    images, labels, ids = [], [], []
    for i in range(n_per_class):
        images.append(_apply_style(_bona_fide_texture(rng, side), style, rng))
        labels.append(0)
        ids.append(f"d{domain_id}-s{stream}-bona-{i}")
    for i in range(n_per_class):
        base = _bona_fide_texture(rng, side)
        artifact = _moire_pattern(rng, side) if i % 2 == 0 else _halftone_pattern(rng, side)
        images.append(_apply_style(base + artifact, style, rng))
        labels.append(1)
        ids.append(f"d{domain_id}-s{stream}-attack-{i}")
    return np.stack(images), np.array(labels), np.full(2 * n_per_class, domain_id), ids
