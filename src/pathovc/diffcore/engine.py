"""Reverse-mode autodiff over the small set of tensor ops the model needs.

Each op computes its result and hands ``_make`` one function ``backward(g)``
that routes the upstream gradient ``g`` of the result to the op's parents.

Arrays are channel-major: (C, T), or (B, C, T) for a batch.  Every op
indexes the last axes, so one code path serves both.  The conv ops do every
contraction as one matmul over the whole batch, so BLAS does the work
(im2col plus GEMM, after Chellapilla, Puri & Simard, 2006): ``_im2col``
pads the input and gathers every item's kernel windows into one
(C*W, B*n) column matrix, its adjoint ``_col2im`` overlap-adds such a
matrix back and drops the padding, and each kernel is viewed as a matrix
with C*W on one side, so a kernel's gradient sums over the batch inside
its GEMM; ``_unbroadcast`` does that sum for the biases.  conv1d gathers
in its forward pass and scatters dx; conv_transpose1d, its adjoint, does
the reverse.  The same inputs give the same bits on every run (the tests
check one and two BLAS threads), but BLAS picks the summation order, so
results can differ from a plain loop's in the last bits.
"""

import weakref

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode differentiation.

    Non-leaf tensors record their parents and a callable that routes their
    gradient to them. Gradients accumulate by summation, so fan-out is
    handled for free.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=()):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss node")
        self.grad = np.ones_like(self.data)
        for node in reversed(_topo_order(self)):
            # grad stays None on branches no gradient reached (e.g. the
            # codeword lookup behind a pass-through); nothing to push there
            if node._backward is not None and node.grad is not None:
                node._backward()

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _lift(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _topo_order(root):
    # Iterative postorder; training graphs are deep enough to overflow the
    # recursion limit.
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    # Sum the gradient of a broadcast result back down to `shape`.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(data, parents, backward):
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents),
                 _parents=tuple(parents))
    if out.requires_grad:
        # _backward takes no argument, so benchmarks/spans.py can wrap it to
        # time the conv backwards.  It reaches out.grad through a weak
        # reference: a strong one would make every node a reference cycle,
        # and a step's whole graph would then outlive its loss until the
        # cyclic collector ran.
        node = weakref.ref(out)
        out._backward = lambda: backward(node().grad)
    return out


def add(a, b):
    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))
    return _make(a.data + b.data, (a, b), bw)


def mul(a, b):
    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
    return _make(a.data * b.data, (a, b), bw)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes do not conform: {a.data.shape} @ {b.data.shape}")

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)
    return _make(a.data @ b.data, (a, b), bw)


def relu(x):
    y = np.maximum(x.data, 0)
    return _make(y, (x,), lambda g: _accumulate(x, g * (y > 0)))


def transpose(x):
    """Swaps the last two axes."""
    return _make(np.swapaxes(x.data, -1, -2).copy(), (x,),
                 lambda g: _accumulate(x, np.swapaxes(g, -1, -2)))


def concat(tensors, axis=0):
    if not tensors:
        raise ValueError("concat of an empty sequence")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def crop(x, length, axis=-1):
    axis = axis % x.data.ndim
    if length > x.data.shape[axis] or length < 1:
        raise ShapeError(f"cannot crop axis of size {x.data.shape[axis]} to {length}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(0, length)
    idx = tuple(idx)

    def bw(g):
        dx = np.zeros_like(x.data)
        dx[idx] = g
        _accumulate(x, dx)
    return _make(x.data[idx].copy(), (x,), bw)


def _im2col(a, w, stride, padding, n):
    """Columns (C*W, B*n) of a (C, T) or (B, C, T) padded by `padding` zeros on each side.

    Column b*n + t holds window t of item b (a 2-D input is one item):
    [c*W + j, b*n + t] = a_padded[b, c, j + stride*t].  The padding is a
    zero buffer plus one slice assignment; np.pad does the same copy at
    several times the cost on these small arrays.
    """
    a = a.swapaxes(0, -2)
    if padding:
        xp = np.zeros(a.shape[:-1] + (a.shape[-1] + 2 * padding,), dtype=a.dtype)
        xp[..., padding:-padding] = a
        a = xp
    cols = np.empty(a.shape[:1] + (w,) + a.shape[1:-1] + (n,), dtype=a.dtype)
    for j in range(w):
        cols[:, j] = a[..., j:j + stride * (n - 1) + 1:stride]
    return cols.reshape(a.shape[0] * w, -1)


def _col2im(cols, w, stride, padding, shape):
    """Adjoint of _im2col: overlap-add (C*W, B*n) columns into a padded
    (C, [B,] size + 2*padding) sum and return it unpadded as `shape`,
    (C, size) or (B, C, size)."""
    c, size = shape[-2:]
    cols = cols.reshape((c, w) + shape[:-2] + (-1,))
    out = np.zeros((c,) + shape[:-2] + (size + 2 * padding,), dtype=cols.dtype)
    for j in range(w):
        out[..., j:j + stride * (cols.shape[-1] - 1) + 1:stride] += cols[:, j]
    return _unflat(out[..., padding:padding + size], shape)


def _unflat(m, shape):
    """A (C, B*T) or (C, [B,] T) array as `shape`, (C, T) or (B, C, T); the
    inverse of a.swapaxes(0, -2).reshape(C, -1), which the convs use to
    lay a whole batch out as one matrix."""
    return m.reshape(shape[-2:-1] + shape[:-2] + shape[-1:]).swapaxes(0, -2)


def conv1d(x, k, stride=1, padding=0):
    """Cross-correlation of x (Cin, T) or (B, Cin, T) with kernels k (Cout, Cin, W).

    Lowered to GEMMs over cols = _im2col(x), (Cin*W, B*Tout), and g as
    g_m (Cout, B*Tout): y = k_m @ cols with k_m = k as (Cout, Cin*W);
    dk = g_m @ cols.T, which sums over the batch; dx = _col2im(k_m.T @ g_m).
    """
    if x.data.ndim not in (2, 3) or k.data.ndim != 3:
        raise ShapeError("conv1d expects x ([B,] Cin, T) and k (Cout, Cin, W)")
    cin, t = x.data.shape[-2:]
    cout, kcin, w = k.data.shape
    if kcin != cin:
        raise ShapeError(f"conv1d channel mismatch: x has {cin}, kernel expects {kcin}")
    if stride < 1 or padding < 0:
        raise ValueError("stride must be >= 1 and padding >= 0")
    t_out = (t + 2 * padding - w) // stride + 1
    if t_out < 1:
        raise ShapeError(f"conv1d output would be empty (T={t}, W={w}, pad={padding})")

    k_m = k.data.reshape(cout, cin * w)
    cols = _im2col(x.data, w, stride, padding, t_out)

    def bw(g):
        g_m = g.swapaxes(0, -2).reshape(cout, -1)
        _accumulate(k, (g_m @ cols.T).reshape(k.data.shape))
        if x.requires_grad:
            _accumulate(x, _col2im(k_m.T @ g_m, w, stride, padding, x.data.shape))
    return _make(_unflat(k_m @ cols, x.data.shape[:-2] + (cout, t_out)), (x, k), bw)


def conv_transpose1d(x, k, stride=1, padding=0):
    """Transposed convolution of x (Cin, T) or (B, Cin, T) with kernels k (Cin, Cout, W).

    The adjoint of conv1d, lowered to GEMMs the same way with k_m = k as
    (Cin, Cout*W) and x as x_m (Cin, B*T): y = _col2im(k_m.T @ x_m); the
    backward takes cols = _im2col(g), (Cout*W, B*T), then dx = k_m @ cols
    and dk = x_m @ cols.T, which sums over the batch.
    """
    if x.data.ndim not in (2, 3) or k.data.ndim != 3:
        raise ShapeError("conv_transpose1d expects x ([B,] Cin, T) and k (Cin, Cout, W)")
    cin, t = x.data.shape[-2:]
    kcin, cout, w = k.data.shape
    if kcin != cin:
        raise ShapeError(f"conv_transpose1d channel mismatch: x has {cin}, kernel expects {kcin}")
    if stride < 1 or padding < 0:
        raise ValueError("stride must be >= 1 and padding >= 0")
    t_out = (t - 1) * stride + w - 2 * padding
    if t_out < 1:
        raise ShapeError("conv_transpose1d output would be empty")

    k_m = k.data.reshape(cin, cout * w)
    x_m = x.data.swapaxes(0, -2).reshape(cin, -1)
    y = _col2im(k_m.T @ x_m, w, stride, padding, x.data.shape[:-2] + (cout, t_out))

    def bw(g):
        cols = _im2col(g, w, stride, padding, t)
        _accumulate(x, _unflat(k_m @ cols, x.data.shape))
        _accumulate(k, (x_m @ cols.T).reshape(k.data.shape))
    # with padding, y is a strided view into the padded sum; the node gets
    # its own contiguous copy
    return _make(y.copy() if padding else y, (x, k), bw)


def embedding(table, indices):
    """Row lookup into table (K, D); returns indices.shape + (D,)."""
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError("embedding table must be 2-D")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError("embedding index out of range")

    def bw(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        _accumulate(table, dt)
    return _make(table.data[idx], (table,), bw)


def straight_through(z, q):
    """Forward q, backward identity onto z; q receives no gradient."""
    if z.data.shape != q.data.shape:
        raise ShapeError(f"straight_through shape mismatch: {z.data.shape} vs {q.data.shape}")
    return _make(q.data.copy(), (z, q), lambda g: _accumulate(z, g))


def tsum(x):
    def bw(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype))
    return _make(x.data.sum(), (x,), bw)


def mean(x):
    n = x.data.size

    def bw(g):
        _accumulate(x, np.broadcast_to(g / n, x.data.shape).astype(x.data.dtype))
    return _make(x.data.mean(), (x,), bw)


def _weighted_mean(name, a, b, weight, pointwise):
    """sum(weight * value) / sum(weight) over a - b, weight broadcast to a's shape.

    pointwise(d) returns (value, slope), slope being d value / d a.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name} shape mismatch: {a.data.shape} vs {b.data.shape}")
    value, slope = pointwise(a.data - b.data)
    weight = np.broadcast_to(np.asarray(weight, dtype=value.dtype), value.shape)
    denom = weight.sum()
    if denom <= 0:
        raise ValueError(f"{name} weights must have positive total mass")
    y = np.sum(weight * value) / denom
    slope = weight * slope

    def bw(g):
        common = g * slope / denom
        _accumulate(a, common)
        _accumulate(b, -common)
    return _make(y, (a, b), bw)


def squared_error(a, b, weight=1):
    """Weighted mean of (a - b)^2; weight defaults to all-ones."""
    return _weighted_mean("squared_error", a, b, weight, lambda d: (d * d, 2 * d))


def abs_error(a, b, weight=1):
    """Weighted mean of |a - b|; weight defaults to all-ones."""
    return _weighted_mean("abs_error", a, b, weight, lambda d: (np.abs(d), np.sign(d)))
