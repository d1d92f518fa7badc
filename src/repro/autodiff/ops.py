"""Vectorized NumPy primitives for the training substrate.

Convolution uses im2col/col2im.  Both move data with ``kh*kw`` strided
slice copies, one per window offset -- no index arrays, no fancy
indexing, no Python loop over pixels.  col2im adds the offsets in
ascending ``(i, j)`` order, the order ``np.add.at`` adds them into each
pixel, so every gradient is bit-identical to an indexed scatter-add.
Besides those adds, the conv passes sum only in their three einsums
and the bias reduction.  Pooling uses stride tricks via reshape when
the window tiles exactly, falling back to im2col otherwise.  All arrays
are NCHW float64 by default for gradient-check accuracy; the layers
cast as configured.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "pad_nchw",
]


def pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad spatial dims of an NCHW tensor."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW ``x`` into columns of shape ``(N, C*kh*kw, oh*ow)``.

    Column ``(c, i, j)`` holds the window offset ``(i, j)`` of channel
    ``c`` at every output position, copied with one strided slice per
    offset.  The result is C-contiguous, except when ``C == 1`` or
    ``kh*kw == 1``.  There an indexed gather ``xp[:, :, rows, cols]``
    (laid out offsets and positions outermost) reshapes without a copy,
    and the result keeps that layout: the einsums downstream see the
    strides, and on another layout they may sum in another order.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)
    xp = pad_nchw(x, padding)
    if c == 1 or kh * kw == 1:
        patches = np.empty((kh * kw, oh * ow, n, c), dtype=x.dtype).transpose(2, 3, 0, 1)
    else:
        patches = np.empty((n, c, kh * kw, oh * ow), dtype=x.dtype)
    windows = patches.reshape(n, c, kh, kw, oh, ow)  # splits axes: always a view
    for i in range(kh):
        rows = slice(i, i + stride * oh, stride)
        for j in range(kw):
            windows[:, :, i, j] = xp[:, :, rows, j : j + stride * ow : stride]
    return patches.reshape(n, c * kh * kw, oh * ow), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to NCHW.

    One strided ``+=`` per window offset, in ascending ``(i, j)``
    order onto a zero buffer: every pixel receives its terms in the
    order ``np.add.at`` would add them, so the sums are bit-identical
    to an indexed scatter-add (``-0.0`` terms included).
    """
    n, c, h, w = x_shape
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    # one transposing copy up front beats reading every offset across strides
    windows = np.ascontiguousarray(cols).reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        rows = slice(i, i + stride * oh, stride)
        for j in range(kw):
            xp[:, :, rows, j : j + stride * ow : stride] += windows[:, :, i, j]
    if padding == 0:
        return xp
    return xp[:, :, padding:-padding, padding:-padding]


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, padding: int
) -> np.ndarray:
    """NCHW convolution: weight ``(O, C, kh, kw)``, optional bias ``(O,)``."""
    o, c, kh, kw = weight.shape
    cols, oh, ow = im2col(x, kh, kw, stride, padding)
    wmat = weight.reshape(o, c * kh * kw)
    out = np.einsum("ok,nkp->nop", wmat, cols, optimize=True)
    if bias is not None:
        out += bias.reshape(1, o, 1)
    return out.reshape(x.shape[0], o, oh, ow)


def conv2d_backward(
    x: np.ndarray,
    weight: np.ndarray,
    dy: np.ndarray,
    stride: int,
    padding: int,
    with_bias: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients (dx, dweight, dbias) for :func:`conv2d_forward`."""
    o, c, kh, kw = weight.shape
    n = x.shape[0]
    cols, oh, ow = im2col(x, kh, kw, stride, padding)
    dy2 = dy.reshape(n, o, oh * ow)
    wmat = weight.reshape(o, c * kh * kw)
    dweight = np.einsum("nop,nkp->ok", dy2, cols, optimize=True).reshape(weight.shape)
    dcols = np.einsum("ok,nop->nkp", wmat, dy2, optimize=True)
    dx = col2im(dcols, x.shape, kh, kw, stride, padding)
    dbias = dy2.sum(axis=(0, 2)) if with_bias else None
    return dx, dweight, dbias


def maxpool2d_forward(x: np.ndarray, k: int, stride: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns (output, argmax index array for backward).

    Window ``k`` with stride ``stride`` (default ``k``); input spatial
    dims must be divisible when stride == k (the common tiling case),
    otherwise trailing rows/cols are cropped like PyTorch's floor mode.
    """
    stride = stride or k
    n, c, h, w = x.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    if stride == k and h % k == 0 and w % k == 0:
        view = x.reshape(n, c, oh, k, ow, k)
        windows = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, k * k)
    else:
        cols, oh2, ow2 = im2col(x.reshape(n * c, 1, h, w), k, k, stride, 0)
        windows = cols.reshape(n, c, k * k, oh2 * ow2).transpose(0, 1, 3, 2).reshape(n, c, oh, ow, k * k)
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, arg


def maxpool2d_backward(
    x_shape: tuple[int, int, int, int], arg: np.ndarray, dy: np.ndarray, k: int, stride: int | None = None
) -> np.ndarray:
    """Scatter ``dy`` to the argmax positions recorded by the forward."""
    stride = stride or k
    n, c, h, w = x_shape
    oh, ow = arg.shape[2], arg.shape[3]
    dx = np.zeros((n, c, h, w), dtype=dy.dtype)
    # decompose flat window index into (dr, dc)
    dr = arg // k
    dc = arg % k
    base_r = (stride * np.arange(oh)).reshape(1, 1, oh, 1)
    base_c = (stride * np.arange(ow)).reshape(1, 1, 1, ow)
    rows = base_r + dr
    cols = base_c + dc
    nidx = np.arange(n).reshape(n, 1, 1, 1)
    cidx = np.arange(c).reshape(1, c, 1, 1)
    np.add.at(dx, (nidx, cidx, rows, cols), dy)
    return dx
