import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histadapter import autodiff as ad
from histadapter.autodiff import ShapeError, Tensor, finite_difference_check
from histadapter.adapter import grid_to_seq, seq_to_grid


def test_row_major_placement():
    # 4 tokens on a 2x2 grid: token 3 lands at (h=1, w=1)
    tokens = Tensor(np.arange(8, dtype=float).reshape(1, 4, 2))
    grid = seq_to_grid(tokens)
    assert np.array_equal(grid.data[0, :, 1, 1], tokens.data[0, 3])
    assert grid.shape == (1, 2, 2, 2)


def test_fourteen_square_with_class():
    rng = np.random.default_rng(0)
    tokens = Tensor(rng.standard_normal((1, 197, 6)))
    grid = seq_to_grid(tokens[:, 1:])
    assert grid.shape == (1, 6, 14, 14)
    back = grid_to_seq(grid)
    assert np.array_equal(back.data, tokens.data[:, 1:])


@pytest.mark.parametrize("side,c", [(1, 3), (2, 4), (4, 1), (3, 8)],
                         ids=["1-1-3", "2-2-4", "4-4-1", "3-3-8"])  # grid h-w-c
def test_round_trip_identity(side, c):
    rng = np.random.default_rng(side * 110 + c)
    tokens = Tensor(rng.standard_normal((1, side * side, c)))
    assert np.array_equal(grid_to_seq(seq_to_grid(tokens)).data, tokens.data)


def test_grid_to_seq_indexing():
    rng = np.random.default_rng(1)
    g = Tensor(rng.standard_normal((1, 8, 3, 3)))
    seq = grid_to_seq(g)
    # element (c, 2, 1) -> sequence row 2*3+1 = 7, column c
    assert np.array_equal(seq.data[0, 7], g.data[0, :, 2, 1])


def test_batched_round_trip():
    rng = np.random.default_rng(2)
    tokens = Tensor(rng.standard_normal((5, 9, 4)))
    grid = seq_to_grid(tokens)
    assert grid.shape == (5, 4, 3, 3)
    assert np.array_equal(grid_to_seq(grid).data, tokens.data)


@settings(deadline=None)
@given(b=st.integers(1, 4), side=st.integers(1, 7), c=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_round_trip_any_shape(b, side, c, seed):
    tokens = Tensor(np.random.default_rng(seed).standard_normal((b, side * side, c)))
    grid = seq_to_grid(tokens)
    assert grid.shape == (b, c, side, side)
    assert np.array_equal(grid_to_seq(grid).data, tokens.data)


def test_token_count_mismatch_rejected():
    # a token count that is not a square fills no grid
    tokens = Tensor(np.zeros((1, 5, 2)))
    with pytest.raises(ShapeError, match="5 patch tokens, not a square grid"):
        seq_to_grid(tokens)


@pytest.mark.parametrize("shape", [(4, 2), (2, 1, 4, 2)], ids=["unbatched", "rank4"])
def test_seq_to_grid_needs_batched_sequences(shape):
    with pytest.raises(ShapeError, match=r"\(B, N, C\)"):
        seq_to_grid(Tensor(np.zeros(shape)))


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 2, 2, 2)], ids=["unbatched", "rank5"])
def test_grid_to_seq_needs_batched_grids(shape):
    with pytest.raises(ShapeError, match=r"\(B, C, H, W\)"):
        grid_to_seq(Tensor(np.zeros(shape)))


def test_gradients_flow_bit_exactly():
    rng = np.random.default_rng(4)
    w = Tensor(rng.standard_normal((1, 6, 3, 3)))

    def f(t):
        return ad.sum_all(ad.mul(seq_to_grid(t), w))

    x = Tensor(rng.standard_normal((1, 9, 6)), requires_grad=True)
    rep = finite_difference_check(f, x, op_name="seq_to_grid")
    assert rep.passed
    # the analytic gradient is an exact reindexing of the weights
    x.zero_grad()
    f(x).backward()
    grid_of_w = w.data.transpose(0, 2, 3, 1).reshape(1, 9, 6)
    assert np.array_equal(x.grad, grid_of_w)
