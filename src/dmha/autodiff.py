"""Minimal dense-tensor autodiff core.

Reverse-mode differentiation over an implicit tape. Covers exactly the
layers the speaker net needs: matmul, 3x3 same-padding conv, 2x2 maxpool,
softmax, relu, batchnorm, plus elementwise/reshaping plumbing with
numpy-style broadcasting.

Dtype policy: a Tensor holds float32 data if given float32, and float64
otherwise (Python scalars included). conv2d_same, relu and maxpool2x2 keep
their input's dtype; the conv casts its float64 weight and bias to it once
per call. A gradient takes the dtype of the tensor it flows into, so
parameter gradients are float64 whatever the activations. Training,
validation and embedding extraction run the encoder in float32 (see
trainer.FeatureCache and model.SpeakerModel.extract); parameters, their
gradients, Adam, BN, pooling, the head, the loss, checkpoints and the
gradient check stay float64.

relu_ is relu in place: it writes max(a, 0) into a's buffer, so a and the
ReLU node share it, and its backward is relu's. It is for a fresh
intermediate whose value no backward reads; the caller states why that
holds, and a tensor with requires_grad=True is refused.

The conv is a column-tiled im2col GEMM on a channel-major, batch-folded
padded buffer (C, B*(H+2)*(W+2)): each of the nine taps is a column slice
of that buffer, shifted by the tap's offset. One tile of TILE output
columns at a time, the nine slices are copied into a (9C, TILE) patch and
one GEMM computes the tile, so the unrolled input is never whole in
memory. TILE and every GEMM width are multiples of 32, which keeps each
pixel out of the BLAS edge kernels whose rounding differs: a batch row
gets the bits of its B=1 encoding. The input gradient runs the same kernel
on the padded output gradient with the flipped kernel, a gather, so its
bits do not depend on the batch either. The NCHW output is a view of the
(O, B, ...) grid, so activations downstream are channel-major in memory.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """Float32 or float64 array plus optional gradient bookkeeping: float32
    data is kept, anything else becomes float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = (data if data.dtype == np.float32
                     else np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    # ---- graph -----------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep seeded from this scalar; it consumes the graph.

        Only leaves (tensors made with requires_grad=True) keep their .grad.
        The sweep pops each inner node once it has passed the node's
        gradient to its parents, and drops the node's gradient, its parent
        links and its backward closure, so the arrays the closure saved are
        freed behind the sweep: it holds the part of the graph not yet
        reached plus a few gradients, not the whole graph. A consumed node's
        backward raises ValueError, so a second backward(), or a consumed
        tensor used in a new graph, fails instead of dropping gradient.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward seed must be scalar, got shape {self.shape}"
            )
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                _backprop(node)

    def requires_grad_path(self) -> bool:
        return self.requires_grad or self._backward is not None

    # ---- operators ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return tslice(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        s = tsum(self, axis=axis, keepdims=keepdims)
        return scale(s, s.data.size / self.data.size)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes or None)


def _consumed(g):
    raise ValueError("backward through a graph an earlier backward consumed")


def _backprop(node: Tensor):
    """Pass node's gradient to its parents and consume node: its gradient
    (unless it is a leaf), parent links and backward closure are dropped
    before the parents' gradients are summed. A function of its own, so
    that its locals go when it returns."""
    parents, bw = node._parents, node._backward
    node._parents, node._backward = (), _consumed
    grads = () if node.grad is None else bw(node.grad)
    del bw
    if not node.requires_grad:
        node.grad = None
    for parent, g in zip(parents, grads):
        if g is None or not parent.requires_grad_path():
            continue
        if g.dtype != parent.data.dtype:
            g = g.astype(parent.data.dtype)
        if parent.grad is None:
            parent.grad = g.copy() if g.base is not None else g
        else:
            parent.grad = parent.grad + g


def _axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad_path() for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---- elementwise / shape ops ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def bw(g):
        return (_unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), bw)


def scale(a, s: float) -> Tensor:
    a = _wrap(a)
    s = float(s)

    def bw(g):
        return (g * s,)

    return _make(a.data * s, (a,), bw)


def power(a, p: float) -> Tensor:
    a = _wrap(a)
    p = float(p)
    out = a.data ** p

    def bw(g):
        return (g * p * a.data ** (p - 1.0),)

    return _make(out, (a,), bw)


def exp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _make(out, (a,), bw)


def log(a) -> Tensor:
    a = _wrap(a)

    def bw(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), bw)


def _relu_node(a: Tensor, out: np.ndarray) -> Tensor:
    """The node of out = max(a, 0); the one ReLU backward for relu and
    relu_."""
    return _make(out, (a,), lambda g: (g * (out > 0),))


def relu(a) -> Tensor:
    a = _wrap(a)
    return _relu_node(a, np.maximum(a.data, 0))


def relu_(a: Tensor) -> Tensor:
    """relu written into a's own buffer, which becomes the node's value, so
    the graph holds one copy of the map where relu holds two. a must be a
    fresh intermediate whose value no backward reads (a conv output, say).
    A tensor with requires_grad=True is refused, since its caller still
    reads it; only a itself is checked, not a tensor a is a view of (a
    reshape of a parameter, say)."""
    if a.requires_grad:
        raise ValueError("relu_ would overwrite a tensor that requires grad")
    return _relu_node(a, np.maximum(a.data, 0, out=a.data))


def cast(a, dtype) -> Tensor:
    """a as dtype; the gradient goes back in a's own dtype. a itself when it
    already has that dtype, so no node is added."""
    a = _wrap(a)
    if a.data.dtype == dtype:
        return a
    return _make(a.data.astype(dtype), (a,), lambda g: (g,))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.shape

    def bw(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), bw)


def transpose(a, axes=None) -> Tensor:
    a = _wrap(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes)

    def bw(g):
        return (g.transpose(inv),)

    return _make(a.data.transpose(axes), (a,), bw)


def tslice(a, idx) -> Tensor:
    a = _wrap(a)

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return (ga,)

    return _make(a.data[idx], (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, bw)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    axes = _axes(axis, a.ndim)

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape),)

    return _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), bw)


# ---- linear algebra -------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.shape} @ {b.shape} "
            f"(inner {a.shape[1]} != {b.shape[0]})"
        )
    out = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), bw)


def softmax(z, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`."""
    z = _wrap(z)
    shifted = z.data - z.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _make(y, (z,), bw)


# ---- conv / pool ----------------------------------------------------------


# output columns per im2col tile, so a tile's (9C, TILE) patch is 9*C*32 KB;
# a multiple of 32 so that every tile's GEMM width is one too (see the
# column rounding in conv2d_same)
TILE = 4096


def _pad_fold(a: np.ndarray, Lp: int) -> np.ndarray:
    """(B,C,H,W) -> zero-padded channel-major buffer (C, Lp) of a's dtype,
    whose first B*(H+2)*(W+2) columns hold the (B, H+2, W+2) padded
    images."""
    B, C, H, W = a.shape
    f = np.zeros((C, Lp), dtype=a.dtype)
    f[:, :B * (H + 2) * (W + 2)].reshape(C, B, H + 2, W + 2)[
        :, :, 1:-1, 1:-1] = a.transpose(1, 0, 2, 3)
    return f


def _patches(f: np.ndarray, Mp: int, Wp: int):
    """Yield (c0, c1, patch) over the TILE-wide column blocks of [0, Mp):
    patch is the (9C, c1-c0) im2col block of padded buffer f, whose rows
    k*C:(k+1)*C hold tap k = 3*di+dj, f[:, off+c0:off+c1] with
    off = di*Wp+dj. The one patch buffer is reused, so use each patch
    before taking the next."""
    C = f.shape[0]
    offs = [di * Wp + dj for di in range(3) for dj in range(3)]
    buf = np.empty((9 * C, min(TILE, Mp)), dtype=f.dtype)
    for c0 in range(0, Mp, TILE):
        c1 = min(c0 + TILE, Mp)
        patch = buf[:, :c1 - c0]
        for k, off in enumerate(offs):
            patch[k * C:(k + 1) * C] = f[:, off + c0:off + c1]
        yield c0, c1, patch


def _conv_grid(wmat: np.ndarray, f: np.ndarray, Mp: int, Wp: int,
               bias=None) -> np.ndarray:
    """(R, 9C) tap-major kernel matrix applied to padded buffer f: one GEMM
    per column tile, written straight into the (R, f.shape[1]) output grid
    of f's dtype; only its first Mp columns are set."""
    out = np.empty((wmat.shape[0], f.shape[1]), dtype=f.dtype)
    for c0, c1, patch in _patches(f, Mp, Wp):
        np.matmul(wmat, patch, out=out[:, c0:c1])
        if bias is not None:
            out[:, c0:c1] += bias[:, None]
    return out


def conv2d_same(x, w, b=None) -> Tensor:
    """3x3 stride-1 convolution with padding 1 (spatial size preserved).

    x: (B,C,H,W), and an unbatched (C,H,W) x runs as a batch of one;
    w: (O,C,3,3); optional bias (O,). The output has x's dtype: w and b
    are cast to it once per call, and their gradients are returned in
    their own dtype.

    Layout: the input is padded channel-major and batch-folded, as
    xf = (C, B*(H+2)*(W+2)). Tap (di,dj) of every output pixel is then the
    column xf[:, j+off] with off = di*(W+2)+dj, where j is the pixel's
    column on the (O, B, H+2, W+2) output grid (columns that wrap across a
    row or batch edge land in the pad and are cropped away). The forward
    gathers the nine taps of TILE output columns into one (9C, TILE) patch
    and runs one (O,9C)@(9C,TILE) GEMM per tile (im2col, one tile at a
    time, so the unrolled input is never whole in memory). The output is an
    NCHW view of that grid.

    Backward re-pads x instead of keeping xf alive. The input gradient is
    the same kernel run on the padded output gradient with the flipped,
    transposed weights: a gather, so each input pixel sums its nine taps
    in one GEMM column, and a batch row's bits do not depend on where the
    tile edges fall (a scatter-add of per-tile tap gradients would add in
    an order set by the row's place in the batch). It is skipped when x
    needs no gradient. The weight gradient sums patch @ gem_tile.T over
    the same tiles, gem being the output-grid gradient.
    """
    x, w = _wrap(x), _wrap(w)
    if x.ndim == 3:
        return conv2d_same(x.reshape((1,) + x.shape), w, b)[0]
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"conv2d_same input must be CHW or BCHW, got {x.shape}")
    if w.ndim != 4 or w.shape[2:] != (3, 3):
        raise ValueError(f"conv2d_same kernel must be (O,C,3,3), got {w.shape}")
    if xd.shape[1] != w.shape[1]:
        raise ValueError(
            f"conv2d_same channel mismatch: input has {xd.shape[1]} channels, "
            f"kernel expects {w.shape[1]}"
        )
    B, C, H, W = xd.shape
    O = w.shape[0]
    Hp, Wp = H + 2, W + 2
    L = B * Hp * Wp
    # GEMM column count: the M = L-2*Wp-2 output columns rounded up to a
    # multiple of 32, so that no pixel falls in a BLAS edge kernel (edge
    # kernels round differently, and where the edge lies depends on B);
    # TILE is a multiple of 32 too, so every tile's GEMM width is one. The
    # extra columns read zeros and are cropped away
    Mp = -(-(L - 2 * Wp - 2) // 32) * 32
    Lp = 2 * Wp + 2 + Mp
    wd = w.data.astype(xd.dtype, copy=False)
    parents = [x, w]
    bd = None
    if b is not None:
        b = _wrap(b)
        parents.append(b)
        bd = b.data.astype(xd.dtype, copy=False)
    acc = _conv_grid(wd.transpose(0, 2, 3, 1).reshape(O, 9 * C),
                     _pad_fold(xd, Lp), Mp, Wp, bd)
    out = acc[:, :L].reshape(O, B, Hp, Wp)[:, :, :H, :W]
    out = out.transpose(1, 0, 2, 3)

    def bw(g):
        # output-grid pixel j sits at padded column j + Wp + 1, so padding
        # g like the input gives the gather operand and, sliced, the grid
        gf = _pad_fold(g, Lp)
        gem = gf[:, Wp + 1:Wp + 1 + Mp]
        gx = gw = None
        if x.requires_grad_path():
            wflip = wd[:, :, ::-1, ::-1].transpose(1, 2, 3, 0)
            gxf = _conv_grid(wflip.reshape(C, 9 * O), gf, Mp, Wp)
            gx = gxf[:, :L].reshape(C, B, Hp, Wp)[:, :, :H, :W]
            gx = gx.transpose(1, 0, 2, 3)
        if w.requires_grad_path():
            gwm = np.zeros((9 * C, O), dtype=w.data.dtype)
            for c0, c1, patch in _patches(_pad_fold(xd, Lp), Mp, Wp):
                gwm += patch @ gem[:, c0:c1].T
            gw = gwm.reshape(3, 3, C, O).transpose(3, 2, 0, 1)
        grads = [gx, gw]
        if b is not None:
            grads.append(gem.sum(axis=1, dtype=b.data.dtype))
        return tuple(grads)

    return _make(out, parents, bw)


def maxpool2x2(x) -> Tensor:
    """2x2/2x2 max pooling; odd trailing rows/cols dropped, ties: first wins.

    x: (B,C,H,W); an unbatched (C,H,W) x runs as a batch of one. The
    forward keeps only the max; the backward routes each window's gradient
    to the first corner, in row-major window order, that equals it, and
    gives the other corners g * 0 (a zero, signed like g)."""
    x = _wrap(x)
    if x.ndim == 3:
        return maxpool2x2(x.reshape((1,) + x.shape))[0]
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"maxpool2x2 input must be CHW or BCHW, got {x.shape}")
    B, C, H, W = xd.shape
    if H < 2 or W < 2:
        raise ValueError(f"maxpool2x2 needs spatial dims >= 2, got {H}x{W}")
    Ho, Wo = H // 2, W // 2

    def corners(a):
        """The four window corners of a as strided views, in row-major
        window order."""
        return [a[:, :, i:2 * Ho:2, j:2 * Wo:2]
                for i in (0, 1) for j in (0, 1)]

    q = corners(xd)
    out = np.maximum(q[0], q[1], out=np.empty((B, C, Ho, Wo), dtype=xd.dtype))
    np.maximum(out, q[2], out=out)
    np.maximum(out, q[3], out=out)

    def bw(g):
        gx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)   # windows not yet routed
        for qk, gk in zip(q, corners(gx)):
            hit = free & (qk == out)
            np.multiply(g, hit, out=gk)   # dense; a masked copy is slower
            free ^= hit
        return (gx,)

    return _make(out, (x,), bw)


# ---- batchnorm ------------------------------------------------------------


@dataclass
class BatchNormState:
    """Running statistics for one batchnorm layer over feature dim F."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum = 0.1   # unannotated: class constants, not dataclass fields
    eps = 1e-5

    @classmethod
    def create(cls, num_features: int) -> "BatchNormState":
        return cls(np.zeros(num_features), np.ones(num_features))


def batchnorm(x, gamma, beta, state: BatchNormState, training: bool) -> Tensor:
    """Per-feature standardization over the batch axis, then affine.

    Training mode uses batch statistics (biased variance) and updates the
    running stats in place; eval mode uses running stats. x: (B, F).
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.ndim != 2:
        raise ValueError(f"batchnorm expects (B,F) input, got {x.shape}")
    B = x.shape[0]
    if training:
        if B < 2:
            raise ValueError("batchnorm training mode requires batch >= 2")
        mu = x.mean(axis=0, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=0, keepdims=True)
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mu.data[0]
        state.running_var = (1 - m) * state.running_var + m * var.data[0]
        xhat = centered * power(var + state.eps, -0.5)
    else:
        xhat = (x - state.running_mean) * Tensor(
            1.0 / np.sqrt(state.running_var + state.eps))
    return xhat * gamma + beta


# ---- verification harness --------------------------------------------------


TOLERANCE = 1e-4
FD_EPS = 1e-5   # the central-difference step


def grad_check(f, x: Tensor, max_coords: int | None = None, rng=None,
               denom_floor: float = 1e-8) -> float:
    """Max relative error between analytic and central-difference gradients.

    f maps a Tensor to a scalar Tensor; error per coordinate is
    |analytic - numeric| / max(denom_floor, |analytic| + |numeric|), over
    all coordinates or a random max_coords of them (large tensors). Raise
    denom_floor for composite functions whose smallest true gradients sit
    below the float64 FD noise floor (~1e-11 absolute at FD_EPS); below
    the floor the check still demands absolute agreement to floor * TOLERANCE.
    """
    xt = Tensor(x.data.copy(), requires_grad=True)
    out = f(xt)
    out.backward()
    analytic = (xt.grad if xt.grad is not None
                else np.zeros_like(xt.data)).reshape(-1)
    flat = xt.data.reshape(-1)
    idx = np.arange(flat.size)
    if max_coords is not None and flat.size > max_coords:
        idx = (rng or np.random.default_rng(0)).choice(
            flat.size, size=max_coords, replace=False)

    def fd(i, step):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(xt).item()
        flat[i] = orig - step
        lo = f(xt).item()
        flat[i] = orig
        return (hi - lo) / (2.0 * step)

    def rel_err(a, num):
        return abs(a - num) / max(denom_floor, abs(a) + abs(num))

    errs = []
    for i in idx:
        a = analytic[i]
        err = rel_err(a, fd(i, FD_EPS))
        if err > TOLERANCE:
            # a relu/maxpool kink inside the FD interval breaks the
            # smoothness precondition; a smaller step resolves it
            err = min(err, rel_err(a, fd(i, FD_EPS / 10.0)))
        errs.append(err)
    # np.max, unlike max(), lets a NaN error through as a failure
    return float(np.max(errs, initial=0.0))
