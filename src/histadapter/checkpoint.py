"""Binary checkpoint format shared by every trained model in this repo.

Layout: the magic string ``SADP1``, then one record per parameter:

    name length   u64 little-endian
    name          UTF-8 bytes
    rank          u64 little-endian
    extents       rank x u64 little-endian
    data          row-major float32 little-endian

Round trips are bit-exact: ``save(load(path))`` reproduces ``path`` byte
for byte, and loading returns exactly the float32 values that were written.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from histadapter.autodiff import Tensor

MAGIC = b"SADP1"

__all__ = ["MAGIC", "CheckpointError", "save_checkpoint", "load_checkpoint"]


class CheckpointError(ValueError):
    """Raised for bad magic, truncated records, bad or duplicate names, or bad extents."""


def save_checkpoint(params: dict, path) -> None:
    """Write named parameters to ``path``.

    Values may be :class:`Tensor` or numpy arrays; data is stored as
    float32 regardless of the in-memory precision.
    """
    path = Path(path)
    chunks = [MAGIC]
    for name, value in params.items():
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        arr = np.asarray(arr, dtype="<f4", order="C")  # keeps 0-d ranks intact
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<Q", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<Q", arr.ndim))
        chunks.append(np.asarray(arr.shape, dtype="<u8").tobytes())
        chunks.append(arr.tobytes())
    path.write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as ``{name: float32 ndarray}`` in file order."""
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic {blob[:5]!r}, expected {MAGIC!r}")
    params: dict = {}
    offset = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise CheckpointError(f"{path}: truncated record at byte {offset}")
        piece = blob[offset:offset + n]
        offset += n
        return piece

    while offset < len(blob):
        (name_len,) = struct.unpack("<Q", take(8))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: parameter name is not UTF-8: {exc}") from exc
        if name in params:
            raise CheckpointError(f"{path}: duplicate parameter name {name!r}")
        (rank,) = struct.unpack("<Q", take(8))
        if rank > 32:
            raise CheckpointError(f"{path}: implausible rank {rank} for {name!r}")
        extents = tuple(int(e) for e in np.frombuffer(take(8 * rank), dtype="<u8"))
        # exact integer product: a numpy product of u64 extents can wrap around
        data = np.frombuffer(take(4 * math.prod(extents)), dtype="<f4")
        try:
            params[name] = data.reshape(extents).copy()
        except ValueError as exc:
            raise CheckpointError(f"{path}: extents {extents} of {name!r}: {exc}") from exc
    return params


def assign_parameters(params: dict, loaded: dict, path="checkpoint") -> None:
    """Copy loaded arrays into live tensors, validating names and shapes."""
    missing = set(params) - set(loaded)
    extra = set(loaded) - set(params)
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter names do not match model "
            f"(missing={sorted(missing)}, unexpected={sorted(extra)})"
        )
    for name, tensor in params.items():
        arr = loaded[name]
        if tuple(arr.shape) != tensor.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: "
                f"file has {tuple(arr.shape)}, model expects {tensor.shape}"
            )
        tensor.data = arr.astype(tensor.data.dtype)
