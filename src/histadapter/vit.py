"""A small vision transformer used as the frozen host for adapters.

Pre-norm blocks with multi-head self-attention and an MLP, a learned class
token and positions, and a 2-way head read off the class token. The "toy"
preset is sized for CPU experiments; the larger presets exist mainly so
parameter and compute overheads can be accounted at realistic scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from histadapter import autodiff as ad
from histadapter.adapter import HistAdapter
from histadapter.autodiff import ShapeError, Tensor
from histadapter.nn import Linear, prefixed, set_trainable

__all__ = ["ViTConfig", "ViTBlock", "VisionTransformer", "PRESETS", "build_model"]


@dataclass(frozen=True)
class ViTConfig:
    depth: int
    width: int
    heads: int
    patch: int
    image: int
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.image % self.patch:
            raise ValueError(f"image {self.image} not divisible by patch {self.patch}")

    @property
    def grid_side(self) -> int:
        return self.image // self.patch

    @property
    def patch_tokens(self) -> int:
        return self.grid_side ** 2

    @property
    def token_count(self) -> int:
        return self.patch_tokens + 1

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch * self.patch


PRESETS = {
    "toy": ViTConfig(depth=4, width=64, heads=4, patch=8, image=32),
    "tiny": ViTConfig(depth=12, width=192, heads=3, patch=16, image=224),
    "small": ViTConfig(depth=12, width=384, heads=6, patch=16, image=224),
    "base": ViTConfig(depth=12, width=768, heads=12, patch=16, image=224),
    "large": ViTConfig(depth=24, width=1024, heads=16, patch=16, image=224),
}


class ViTBlock:
    """Pre-norm transformer block; adapters may hook in after each stage."""

    def __init__(self, cfg: ViTConfig, rng: np.random.Generator):
        d = cfg.width
        self.cfg = cfg
        self.ln1_gain = Tensor(np.ones(d), requires_grad=True)
        self.ln1_shift = Tensor(np.zeros(d), requires_grad=True)
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.proj = Linear(d, d, rng)
        self.ln2_gain = Tensor(np.ones(d), requires_grad=True)
        self.ln2_shift = Tensor(np.zeros(d), requires_grad=True)
        self.fc1 = Linear(d, cfg.mlp_ratio * d, rng)
        self.fc2 = Linear(cfg.mlp_ratio * d, d, rng)
        self.msa_adapter: HistAdapter | None = None
        self.mlp_adapter: HistAdapter | None = None

    def mhsa(self, x: Tensor) -> Tensor:
        """Multi-head self-attention on (B, N, d) tokens (projection included, no residual)."""
        if x.ndim != 3 or x.shape[-1] != self.cfg.width:
            raise ShapeError(f"block expects (B, N, {self.cfg.width}) tokens, got {x.shape}")
        return self.proj(ad.attention(self.wq(x), self.wk(x), self.wv(x), self.cfg.heads))

    def _attend(self, x: Tensor) -> Tensor:
        return ad.add(x, self.mhsa(ad.layernorm(x, self.ln1_gain, self.ln1_shift)))

    def _mlp(self, t: Tensor) -> Tensor:
        y = self.fc2(ad.gelu(self.fc1(ad.layernorm(t, self.ln2_gain, self.ln2_shift))))
        return ad.add(t, y)

    def forward(self, x: Tensor) -> Tensor:
        """(B, N, d) tokens to (B, N, d)."""
        t = self._attend(x)
        if self.msa_adapter is not None:
            t = self.msa_adapter.apply(t)
        out = self._mlp(t)
        return out if self.mlp_adapter is None else self.mlp_adapter.apply(out)

    def class_row(self, x: Tensor, with_style: bool):
        """(B, N, d) tokens to the (B, 1, d) class row, and the MLP-side adapter's
        token map of the patch rows if ``with_style`` (else None).

        Without it the MLP sees the class row alone, and the adapters, which
        pass the class row through unchanged, are skipped.
        """
        t = self._attend(x)
        if not with_style:
            return self._mlp(t[:, :1, :]), None
        out = self._mlp(self.msa_adapter.apply(t))
        return out[:, :1, :], self.mlp_adapter.token_map(out[:, 1:, :])

    def backbone_parameters(self) -> dict:
        params = {
            "ln1.gain": self.ln1_gain, "ln1.shift": self.ln1_shift,
            "ln2.gain": self.ln2_gain, "ln2.shift": self.ln2_shift,
        }
        for name in ("wq", "wk", "wv", "proj", "fc1", "fc2"):
            params.update(prefixed(name, getattr(self, name).parameters()))
        return params

    def parameters(self) -> dict:
        params = self.backbone_parameters()
        if self.msa_adapter is not None:
            params.update(prefixed("msa_adapter", self.msa_adapter.parameters()))
        if self.mlp_adapter is not None:
            params.update(prefixed("mlp_adapter", self.mlp_adapter.parameters()))
        return params


class VisionTransformer:
    def __init__(self, cfg: ViTConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.patch_embed = Linear(cfg.patch_dim, cfg.width, rng)
        self.class_token = Tensor(rng.normal(0.0, 0.02, cfg.width), requires_grad=True)
        self.pos_embed = Tensor(
            rng.normal(0.0, 0.02, (cfg.token_count, cfg.width)), requires_grad=True
        )
        self.blocks = [ViTBlock(cfg, rng) for _ in range(cfg.depth)]
        self.final_gain = Tensor(np.ones(cfg.width), requires_grad=True)
        self.final_shift = Tensor(np.zeros(cfg.width), requires_grad=True)
        self.head = Linear(cfg.width, 2, rng)
        self._capture_style = False
        self.style_map: Tensor | None = None  # set by forward

    def patchify(self, images: Tensor) -> Tensor:
        """(B, 3, S, S) images -> (B, N, 3 * patch^2) rows, row-major patches."""
        cfg = self.cfg
        b = images.shape[0]
        if images.shape[1:] != (3, cfg.image, cfg.image):
            raise ShapeError(
                f"expected images (B, 3, {cfg.image}, {cfg.image}), got {images.shape}"
            )
        g, p = cfg.grid_side, cfg.patch
        x = ad.reshape(images, (b, 3, g, p, g, p))
        x = ad.transpose(x, (0, 2, 4, 1, 3, 5))
        return ad.reshape(x, (b, g * g, cfg.patch_dim))

    def embed(self, images: Tensor) -> Tensor:
        """(B, 3, S, S) images -> (B, 1 + N, width) tokens, class token at row 0."""
        cfg = self.cfg
        b = images.shape[0]
        tokens = self.patch_embed(self.patchify(images))
        cls = ad.add(np.zeros((b, 1, cfg.width)), self.class_token)
        tokens = ad.concat([cls, tokens], axis=1)
        return ad.add(tokens, self.pos_embed)

    def forward(self, images) -> Tensor:
        """Images to 2-class logits (index 1 is the attack class).

        Also sets :attr:`style_map`: the (B, adapter_dim, side, side) map token
        style regularization reads, or None unless capture is on and this
        pass builds a graph.
        """
        if not isinstance(images, Tensor):
            images = Tensor(images)
        x = self.embed(images)
        for block in self.blocks[:-1]:
            x = block.forward(x)
        x, self.style_map = self.blocks[-1].class_row(
            x, self._capture_style and ad.grad_enabled())
        x = ad.layernorm(x, self.final_gain, self.final_shift)
        return self.head(x[:, 0, :])

    def insert_adapters(self, rng: np.random.Generator, adapter_dim: int = 8,
                        theta: float = 0.7, variant: str = "full",
                        fusion: str = "sum") -> None:
        """Attach a pair of adapters to every block and freeze the backbone.

        The classification head stays trainable: with a randomly initialized
        (never pre-trained) backbone a frozen head could not classify.
        """
        args = (self.cfg.width, rng, adapter_dim, theta, variant, fusion)
        for block in self.blocks:
            block.msa_adapter = HistAdapter(*args)
            block.mlp_adapter = HistAdapter(*args)
        set_trainable(self.backbone_parameters(), False)
        set_trainable(self.head.parameters(), True)

    def set_style_capture(self, enabled: bool) -> None:
        """Whether forward passes that build a graph set :attr:`style_map` (adapted models)."""
        self._capture_style = enabled and self.blocks[-1].mlp_adapter is not None

    def _walk(self, block_params) -> dict:
        """Parameters before the head, in checkpoint order, taking ``block_params(block)``."""
        params = prefixed("patch_embed", self.patch_embed.parameters())
        params["class_token"] = self.class_token
        params["pos_embed"] = self.pos_embed
        for i, block in enumerate(self.blocks):
            params.update(prefixed(f"block{i}", block_params(block)))
        params["final_ln.gain"] = self.final_gain
        params["final_ln.shift"] = self.final_shift
        return params

    def backbone_parameters(self) -> dict:
        return self._walk(ViTBlock.backbone_parameters)

    def parameters(self) -> dict:
        params = self._walk(ViTBlock.parameters)
        params.update(prefixed("head", self.head.parameters()))
        return params

    def trainable_parameters(self) -> dict:
        return {k: v for k, v in self.parameters().items() if v.requires_grad}


def build_model(preset: str, seed: int, adapter_dim: int = 8, theta: float = 0.7,
                variant: str | None = "full", fusion: str = "sum") -> VisionTransformer:
    """Deterministically build a (optionally adapted) model from a preset name."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    rng = np.random.default_rng(np.random.SeedSequence([17, seed]))
    model = VisionTransformer(PRESETS[preset], rng)
    if variant is not None:
        model.insert_adapters(rng, adapter_dim=adapter_dim, theta=theta,
                              variant=variant, fusion=fusion)
    return model
