"""Numerical primitives: im2col round trips and convolution gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.autodiff.ops import (
    col2im,
    conv2d_backward,
    conv2d_forward,
    im2col,
    maxpool2d_backward,
    maxpool2d_forward,
    pad_nchw,
)


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = im2col(x, 3, 3, 1, 1)
        assert (oh, ow) == (6, 6)
        assert cols.shape == (2, 3 * 9, 36)

    def test_identity_kernel(self, rng):
        """1x1/1 im2col is just a reshape of the input."""
        x = rng.normal(size=(1, 2, 4, 4))
        cols, oh, ow = im2col(x, 1, 1, 1, 0)
        assert np.allclose(cols.reshape(1, 2, 4, 4), x)

    def test_col2im_adjointness(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — exact adjoint pair."""
        x = rng.normal(size=(2, 3, 5, 5))
        cols, _, _ = im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, 2, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConv:
    def test_against_direct_convolution(self, rng):
        """im2col conv matches a naive quadruple loop."""
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d_forward(x, w, None, 1, 0)
        naive = np.zeros_like(out)
        for o in range(3):
            for i in range(3):
                for j in range(3):
                    naive[0, o, i, j] = (x[0, :, i : i + 3, j : j + 3] * w[o]).sum()
        assert np.allclose(out, naive)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_gradients_match_numeric(self, rng, stride, padding):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        dy = rng.normal(size=conv2d_forward(x, w, b, stride, padding).shape)

        def objective():
            return float((conv2d_forward(x, w, b, stride, padding) * dy).sum())

        dx, dw, db = conv2d_backward(x, w, dy, stride, padding, with_bias=True)
        assert np.allclose(dx, numeric_grad(objective, x), atol=1e-7)
        assert np.allclose(dw, numeric_grad(objective, w), atol=1e-7)
        assert np.allclose(db, numeric_grad(objective, b), atol=1e-7)

    def test_bias_adds_per_channel(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        w = np.zeros((2, 1, 1, 1))
        b = np.array([1.5, -2.0])
        out = conv2d_forward(x, w, b, 1, 0)
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = maxpool2d_forward(x, 2)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, arg = maxpool2d_forward(x, 2)
        dy = np.ones_like(out)
        dx = maxpool2d_backward(x.shape, arg, dy, 2)
        assert dx.sum() == 4
        assert dx[0, 0, 1, 1] == 1  # position of 5
        assert dx[0, 0, 3, 3] == 1  # position of 15

    def test_gradient_numeric(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        out, arg = maxpool2d_forward(x, 2)
        dy = rng.normal(size=out.shape)

        def objective():
            o, _ = maxpool2d_forward(x, 2)
            return float((o * dy).sum())

        dx = maxpool2d_backward(x.shape, arg, dy, 2)
        assert np.allclose(dx, numeric_grad(objective, x), atol=1e-7)

    def test_non_divisible_input_cropped(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        out, _ = maxpool2d_forward(x, 2)
        assert out.shape == (1, 1, 2, 2)


# -- oracle: im2col as a fancy-index gather, col2im as np.add.at ------------


def _gather_indices(h, w, k, stride, padding):
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    rows = np.repeat(np.arange(k), k)[:, None] + stride * np.repeat(np.arange(oh), ow)[None, :]
    cols = np.tile(np.arange(k), k)[:, None] + stride * np.tile(np.arange(ow), oh)[None, :]
    return rows, cols, oh, ow


def oracle_im2col(x, k, stride, padding):
    n, c, h, w = x.shape
    rows, cols, oh, ow = _gather_indices(h, w, k, stride, padding)
    return pad_nchw(x, padding)[:, :, rows, cols].reshape(n, c * k * k, oh * ow), oh, ow


def oracle_col2im(cols, x_shape, k, stride, padding):
    n, c, h, w = x_shape
    rows, colidx, oh, ow = _gather_indices(h, w, k, stride, padding)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    np.add.at(xp, (slice(None), slice(None), rows, colidx), cols.reshape(n, c, k * k, oh * ow))
    return xp if padding == 0 else xp[:, :, padding:-padding, padding:-padding]


def _with_negative_zeros(rng, shape):
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.25] = -0.0
    return a


def _same(a, b):
    """Equal shape, strides and bytes: einsum sees the layout, not just the values."""
    assert a.shape == b.shape
    assert a.strides == b.strides
    assert a.tobytes() == b.tobytes()


@given(
    n=st.integers(1, 4),
    c=st.integers(1, 4),
    o=st.integers(1, 4),
    k=st.integers(1, 4),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    dh=st.integers(0, 5),
    dw=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
@example(n=2, c=3, o=2, k=1, stride=2, padding=1, dh=3, dw=2, seed=0)  # kh*kw == 1
@example(n=2, c=3, o=2, k=3, stride=1, padding=0, dh=0, dw=0, seed=1)  # oh*ow == 1
@example(n=2, c=1, o=3, k=4, stride=3, padding=0, dh=0, dw=2, seed=2)  # C == 1 and oh*ow == 1
@example(n=3, c=1, o=1, k=1, stride=1, padding=0, dh=0, dw=0, seed=3)  # all three at once
@settings(max_examples=150, deadline=None)
def test_conv_kernels_match_gather_and_add_at_oracle(n, c, o, k, stride, padding, dh, dw, seed):
    """im2col/col2im and both conv passes are bit-identical to the
    indexed gather and ``np.add.at`` scatter they replace, signed zeros
    included."""
    rng = np.random.default_rng(seed)
    x = _with_negative_zeros(rng, (n, c, k + dh, k + dw))
    weight = _with_negative_zeros(rng, (o, c, k, k))
    bias = _with_negative_zeros(rng, (o,))

    cols, oh, ow = im2col(x, k, k, stride, padding)
    ref_cols, ref_oh, ref_ow = oracle_im2col(x, k, stride, padding)
    assert (oh, ow) == (ref_oh, ref_ow)
    _same(cols, ref_cols)

    wmat = weight.reshape(o, c * k * k)
    ref_out = np.einsum("ok,nkp->nop", wmat, ref_cols, optimize=True)
    ref_out += bias.reshape(1, o, 1)
    _same(conv2d_forward(x, weight, bias, stride, padding), ref_out.reshape(n, o, oh, ow))

    dy = _with_negative_zeros(rng, (n, o, oh, ow))
    dy2 = dy.reshape(n, o, oh * ow)
    ref_dw = np.einsum("nop,nkp->ok", dy2, ref_cols, optimize=True).reshape(weight.shape)
    ref_dcols = np.einsum("ok,nop->nkp", wmat, dy2, optimize=True)
    ref_dx = oracle_col2im(ref_dcols, x.shape, k, stride, padding)
    _same(col2im(ref_dcols, x.shape, k, k, stride, padding), ref_dx)

    dx, dweight, dbias = conv2d_backward(x, weight, dy, stride, padding, with_bias=True)
    _same(dx, ref_dx)
    _same(dweight, ref_dw)
    _same(dbias, dy2.sum(axis=(0, 2)))
