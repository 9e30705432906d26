import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histadapter import autodiff as ad
from histadapter.autodiff import ShapeError, Tensor, finite_difference_check
from histadapter.tokens import grid_to_seq, seq_to_grid


def test_row_major_placement():
    # 4 tokens on a 2x2 grid: token 3 lands at (h=1, w=1)
    tokens = Tensor(np.arange(8, dtype=float).reshape(1, 4, 2))
    grid = seq_to_grid(tokens, 2, 2)
    assert np.array_equal(grid.data[0, :, 1, 1], tokens.data[0, 3])
    assert grid.shape == (1, 2, 2, 2)


def test_fourteen_square_with_class():
    rng = np.random.default_rng(0)
    tokens = Tensor(rng.standard_normal((1, 197, 6)))
    grid = seq_to_grid(tokens[:, 1:], 14, 14)
    assert grid.shape == (1, 6, 14, 14)
    back = grid_to_seq(grid)
    assert np.array_equal(back.data, tokens.data[:, 1:])


@pytest.mark.parametrize("h,w,c", [(1, 1, 3), (2, 3, 4), (4, 4, 1), (3, 5, 8)])
def test_round_trip_identity(h, w, c):
    rng = np.random.default_rng(h * 100 + w * 10 + c)
    tokens = Tensor(rng.standard_normal((1, h * w, c)))
    assert np.array_equal(grid_to_seq(seq_to_grid(tokens, h, w)).data, tokens.data)


def test_grid_to_seq_indexing():
    rng = np.random.default_rng(1)
    g = Tensor(rng.standard_normal((1, 8, 3, 3)))
    seq = grid_to_seq(g)
    # element (c, 2, 1) -> sequence row 2*3+1 = 7, column c
    assert np.array_equal(seq.data[0, 7], g.data[0, :, 2, 1])


def test_batched_round_trip():
    rng = np.random.default_rng(2)
    tokens = Tensor(rng.standard_normal((5, 10, 4)))
    grid = seq_to_grid(tokens, 2, 5)
    assert grid.shape == (5, 4, 2, 5)
    assert np.array_equal(grid_to_seq(grid).data, tokens.data)


@settings(deadline=None)
@given(b=st.integers(1, 4), h=st.integers(1, 7), w=st.integers(1, 7), c=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_round_trip_any_shape(b, h, w, c, seed):
    tokens = Tensor(np.random.default_rng(seed).standard_normal((b, h * w, c)))
    grid = seq_to_grid(tokens, h, w)
    assert grid.shape == (b, c, h, w)
    assert np.array_equal(grid_to_seq(grid).data, tokens.data)


def test_token_count_mismatch_rejected():
    tokens = Tensor(np.zeros((1, 5, 2)))
    with pytest.raises(ShapeError, match="patch tokens"):
        seq_to_grid(tokens, 2, 2)


@pytest.mark.parametrize("shape", [(4, 2), (2, 1, 4, 2)], ids=["unbatched", "rank4"])
def test_seq_to_grid_needs_batched_sequences(shape):
    with pytest.raises(ShapeError, match=r"\(B, N, C\)"):
        seq_to_grid(Tensor(np.zeros(shape)), 2, 2)


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 2, 2, 2)], ids=["unbatched", "rank5"])
def test_grid_to_seq_needs_batched_grids(shape):
    with pytest.raises(ShapeError, match=r"\(B, C, H, W\)"):
        grid_to_seq(Tensor(np.zeros(shape)))


def test_gradients_flow_bit_exactly():
    rng = np.random.default_rng(4)
    w = Tensor(rng.standard_normal((1, 6, 2, 3)))

    def f(t):
        return ad.sum_all(ad.mul(seq_to_grid(t, 2, 3), w))

    x = Tensor(rng.standard_normal((1, 6, 6)), requires_grad=True)
    rep = finite_difference_check(f, x, op_name="seq_to_grid")
    assert rep.passed
    # the analytic gradient is an exact reindexing of the weights
    x.zero_grad()
    f(x).backward()
    grid_of_w = w.data.transpose(0, 2, 3, 1).reshape(1, 6, 6)
    assert np.array_equal(x.grad, grid_of_w)
