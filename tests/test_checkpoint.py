import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from histadapter.autodiff import Tensor
from histadapter.checkpoint import (
    MAGIC,
    CheckpointError,
    assign_parameters,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def params():
    rng = np.random.default_rng(0)
    return {
        "cdc.kernel": Tensor(rng.standard_normal((4, 4, 3, 3))),
        "cdc.bias": Tensor(rng.standard_normal(4)),
        "hist.mu": Tensor(np.zeros(4)),
        "hist.gamma": Tensor(np.ones(4)),
        "block0.msa_adapter.dim_up.weight": Tensor(rng.standard_normal((4, 16))),
        "scalar": Tensor(np.asarray(3.5)),
    }


def test_round_trip_values_exact_in_float32(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(params)
    for name, tensor in params.items():
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], tensor.data.astype(np.float32))


def test_file_round_trip_bit_exact(tmp_path, params):
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(params, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_magic_prefix(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    assert path.read_bytes().startswith(MAGIC)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    (tmp_path / "cut.ckpt").write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_assign_validates_names_and_shapes(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)

    live = {name: Tensor(t.data.copy()) for name, t in params.items()}
    assign_parameters(live, loaded)
    assert np.array_equal(live["cdc.bias"].data, params["cdc.bias"].data.astype(np.float32))

    with pytest.raises(CheckpointError, match="names"):
        assign_parameters({"missing": Tensor(np.zeros(1))}, loaded)

    bad = {name: Tensor(t.data.copy()) for name, t in params.items()}
    bad["cdc.bias"] = Tensor(np.zeros(7))
    with pytest.raises(CheckpointError, match="shape"):
        assign_parameters(bad, loaded)


def record(name: bytes, extents, data: bytes = b"") -> bytes:
    """One raw checkpoint record, with whatever fields the caller gives."""
    return (struct.pack("<Q", len(name)) + name + struct.pack("<Q", len(extents))
            + np.asarray(extents, dtype="<u8").tobytes() + data)


@pytest.mark.parametrize("body,match", [
    (record(b"\xff\xfe", [1], b"\0" * 4), "UTF-8"),
    (record(b"w", [1], b"\0" * 4) * 2, "duplicate"),
    (record(b"w", [2 ** 62, 4]), "truncated"),  # element count wraps to 0 in int64
    (record(b"w", [0, 2 ** 64 - 1]), "extents"),  # zero elements, extent beyond intp
], ids=["non_utf8_name", "duplicate_name", "overflowing_count", "huge_extent"])
def test_malformed_record_rejected(tmp_path, body, match):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + body)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(tail=st.binary(max_size=256))
def test_fuzzed_bytes_load_or_raise_checkpoint_error(tmp_path, tail):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(MAGIC + tail)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(name=st.binary(max_size=8),
       extents=st.lists(st.integers(0, 2 ** 64 - 1), max_size=4),
       data=st.binary(max_size=64))
def test_fuzzed_record_fields_load_or_raise_checkpoint_error(tmp_path, name, extents, data):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(MAGIC + record(name, extents, data))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
