"""Dense float64 tensors with reverse-mode automatic differentiation.

A small pure-numpy core sized for set-transformer policy networks: 1-D/2-D
arrays and batches of them, primitive ops recorded onto an implicit tape
during the forward pass, and the network building blocks (a fused affine
projection, exact-erf GELU, layer norm, stable log-softmax, multi-head
attention with a key-padding mask). Everything is 64-bit; an exact NaN/Inf
screen on every leaf and op output (one dot product, no ``np.errstate``)
raises at the op that made the value.

The tape is acyclic (output -> node -> inputs, never back), so reference
counting frees a dead graph. Gradients are read-only: leaves may share one
array, so code that rescales a gradient assigns a new one.
"""

import json
import math
import os

import numpy as np
from scipy.special import erf

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

CHECKPOINT_FORMAT_VERSION = 1
_META_KEY = "__meta__"


class NumericsError(Exception):
    """Base class for tensor-core failures."""


class ShapeError(NumericsError):
    """Operand shapes are incompatible with the requested op."""


class NonFiniteError(NumericsError):
    """A NaN or Inf appeared in tensor data."""


class GraphError(NumericsError):
    """Backward was invoked on something that is not a scalar graph output."""


class ConfigError(NumericsError):
    """Structural configuration is invalid (e.g. heads not dividing the width)."""


class Node:
    """One recorded primitive op: input tensors and backward rule.

    ``backward_fn`` maps the gradient w.r.t. the output to a tuple of
    gradients aligned with ``inputs`` (``None`` for non-differentiable slots).
    """

    __slots__ = ("inputs", "backward_fn", "name")

    def __init__(self, inputs, backward_fn, name):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.name = name

    def __repr__(self):
        return f"Node({self.name})"


def _finite(data):
    """``data`` as a float64 array, exactly screened for NaN/Inf with no numpy error state:
    a NaN or Inf makes the sum of squares (one BLAS dot) non-finite, and finite
    values whose squares overflow fall through to the elementwise check."""
    arr = np.asarray(data, dtype=np.float64)
    if not math.isfinite(np.vdot(arr, arr)) and not np.all(np.isfinite(arr)):
        raise NonFiniteError("tensor holds non-finite values")
    return arr


class Tensor:
    """A float64 array plus optional gradient buffer and producing node."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False):
        self.data = _finite(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are plain Python numbers
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))


_grad_enabled = True


class no_grad:
    """Context that skips tape recording; forward values are unaffected."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _op(data, inputs, backward_fn, name):
    """Create the output tensor of a primitive and record its node."""
    out = Tensor.__new__(Tensor)
    out.data = _finite(data)
    out.grad = None
    out.requires_grad = _grad_enabled and any(t.requires_grad for t in inputs)
    out.node = Node(tuple(inputs), backward_fn, name) if out.requires_grad else None
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic primitives
# ---------------------------------------------------------------------------


def add(a, b):
    if not isinstance(b, Tensor):
        c = float(b)
        return _op(a.data + c, [a], lambda g: (g,), "add_const")
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _op(out, [a, b], bwd, "add")


def sub(a, b):
    if not isinstance(b, Tensor):
        return add(a, -float(b))
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _op(out, [a, b], bwd, "sub")


def neg(a):
    return _op(-a.data, [a], lambda g: (-g,), "neg")


def mul(a, b):
    if not isinstance(b, Tensor):
        c = float(b)
        return _op(a.data * c, [a], lambda g: (g * c,), "mul_const")
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _op(out, [a, b], bwd, "mul")


def matmul(a, b):
    """Matrix product with standard vector promotion.

    1-D/2-D operands multiply as usual. An ``a`` with leading batch axes,
    shape (..., k), multiplies a 2-D weight (k, m) row by row; the weight's
    gradient sums over every leading axis in one product.
    """
    out, bwd = _matmul_arrays(a.data, b.data)
    return _op(out, [a, b], bwd, "matmul")


def _matmul_arrays(ad, bd):
    """The product of :func:`matmul` on arrays, and its backward rule."""
    if ad.ndim == 0 or bd.ndim == 0:
        raise ShapeError("matmul requires 1-D or 2-D operands")
    if bd.ndim > 2 or (ad.ndim > 2 and bd.ndim != 2):
        raise ShapeError(f"a batched matmul needs a 2-D right operand, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} @ {bd.shape}")
    a2 = ad.reshape(-1, ad.shape[-1])
    b2 = bd if bd.ndim == 2 else bd[:, None]
    out = (a2 @ b2).reshape(ad.shape[:-1] + bd.shape[1:])

    def bwd(g):
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        ga = (g2 @ b2.T).reshape(ad.shape)
        gb = (a2.T @ g2).reshape(bd.shape)
        return ga, gb

    return out, bwd


def affine(a, w, b):
    """``add(matmul(a, w), b)`` recorded as one node, with the same two numpy
    operations, so its value and gradients equal the pair's bit for bit."""
    prod, matmul_bwd = _matmul_arrays(a.data, w.data)
    shape = prod.shape  # the closure keeps the shape, not the pre-bias product

    def bwd(g):
        return (*matmul_bwd(_unbroadcast(g, shape)), _unbroadcast(g, b.data.shape))

    return _op(prod + b.data, [a, w, b], bwd, "affine")


def reshape(a, shape):
    old = a.data.shape
    return _op(a.data.reshape(shape), [a], lambda g: (g.reshape(old),), "reshape")


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        bounds = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, bounds, axis=axis))

    return _op(out, tensors, bwd, "concat")


def narrow(a, axis, start, length):
    """Contiguous slice of ``length`` entries along ``axis``."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx].copy()

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _op(out, [a], bwd, "narrow")


def pick(a, index):
    """Select one entry per row: ``a[index]`` of a 1-D tensor (a 0-d tensor),
    or ``a[i, index[i]]`` of a 2-D tensor (a 1-D tensor of its rows)."""
    if a.data.ndim == 1:
        sel = int(index)
    elif a.data.ndim == 2:
        cols = np.asarray(index, dtype=np.int64)
        if cols.shape != a.data.shape[:1]:
            raise ShapeError(f"pick needs one index per row, got {cols.shape} for {a.data.shape}")
        sel = (np.arange(cols.size), cols)
    else:
        raise ShapeError("pick expects a 1-D or 2-D tensor")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[sel] = g
        return (full,)

    return _op(a.data[sel], [a], bwd, "pick")


def tsum(a):
    shape = a.data.shape
    return _op(a.data.sum(), [a], lambda g: (np.broadcast_to(g, shape).copy(),), "sum")


def tmean(a):
    shape = a.data.shape
    n = a.data.size

    def bwd(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return _op(a.data.mean(), [a], bwd, "mean")


def square(a):
    return _op(a.data * a.data, [a], lambda g: (2.0 * a.data * g,), "square")


def exp(a):
    with np.errstate(over="ignore"):  # overflow becomes Inf and is rejected by _op
        out = np.exp(a.data)
    return _op(out, [a], lambda g: (g * out,), "exp")


def minimum(a, b):
    """Elementwise minimum; at exact ties the gradient goes to ``a``."""
    take_a = a.data <= b.data

    def bwd(g):
        return np.where(take_a, g, 0.0), np.where(take_a, 0.0, g)

    return _op(np.where(take_a, a.data, b.data), [a, b], bwd, "minimum")


def maximum(a, b):
    """Elementwise maximum; at exact ties the gradient goes to ``a``."""
    take_a = a.data >= b.data

    def bwd(g):
        return np.where(take_a, g, 0.0), np.where(take_a, 0.0, g)

    return _op(np.where(take_a, a.data, b.data), [a, b], bwd, "maximum")


def clip(a, lo, hi):
    """Clamp to [lo, hi]; gradient passes wherever the input is inside (inclusive)."""
    def bwd(g):
        inside = (a.data >= lo) & (a.data <= hi)
        return (np.where(inside, g, 0.0),)

    return _op(np.clip(a.data, lo, hi), [a], bwd, "clip")


# ---------------------------------------------------------------------------
# network building blocks
# ---------------------------------------------------------------------------


def gelu(a):
    """Exact Gaussian-error linear unit x * Phi(x) (erf form, not tanh)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / SQRT2))
    out = x * cdf

    def bwd(g):
        pdf = INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

    return _op(out, [a], bwd, "gelu")


def layer_norm(a, gain, bias, eps=1e-5):
    """Standardize along the last axis (biased variance + eps), then apply gain and bias."""
    x = a.data
    if x.ndim == 0:
        raise ShapeError("layer_norm expects at least a 1-D tensor")
    # every mean is the sum and division ``np.mean`` runs, without its Python wrappers;
    # the centring, squares, sum and division are ``np.var``'s, done once
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / n
            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / n
        )
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes)
        dbias = g.sum(axis=axes)
        return dx, dgain, dbias

    return _op(out, [a, gain, bias], bwd, "layer_norm")


def log_softmax(a):
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    out = x - lse

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _op(out, [a], bwd, "log_softmax")


def mha_core(q, k, v, heads, key_mask=None):
    """Multi-head scaled dot-product attention on projected queries, keys and values.

    ``q`` is (m, d) and ``k``, ``v`` are (n, d), or all three carry a leading
    batch axis: (B, m, d) and (B, n, d). The width splits into ``heads``
    slices, each attended at scale 1/sqrt(d/heads), and the per-head results
    are concatenated. ``key_mask``, boolean (n,) or (B, n), marks the keys
    that exist; the others (padding) get an attention weight of exactly 0
    and no gradient. Every query needs at least one unmasked key. No
    positional information enters: permuting the keys and values leaves the
    output unchanged, and permuting the queries permutes it identically.
    """
    qd, kd, vd = q.data, k.data, v.data
    if not (qd.ndim == kd.ndim and qd.ndim in (2, 3) and kd.shape == vd.shape
            and qd.shape[:-2] == kd.shape[:-2] and qd.shape[-1] == kd.shape[-1]):
        raise ShapeError(f"mha_core shapes disagree: q {qd.shape}, k {kd.shape}, v {vd.shape}")
    if qd.ndim == 2:
        qd, kd, vd = qd[None], kd[None], vd[None]
    b, m, d = qd.shape
    n = kd.shape[1]
    if d % heads != 0:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    # (B, heads, rows, dh) views
    qh = qd.reshape(b, m, heads, dh).transpose(0, 2, 1, 3)
    kh = kd.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
    vh = vd.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    if key_mask is not None:
        keep = np.asarray(key_mask, dtype=bool).reshape(-1, 1, 1, n)
        scores = np.where(keep, scores, -np.inf)  # exp(-inf) is exactly 0
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = (attn @ vh).transpose(0, 2, 1, 3).reshape(q.data.shape)

    def bwd(g):
        gh = g.reshape(b, m, heads, dh).transpose(0, 2, 1, 3)
        d_attn = gh @ vh.transpose(0, 1, 3, 2)
        gv = attn.transpose(0, 1, 3, 2) @ gh
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        gq = scale * (d_scores @ kh)
        gk = scale * (d_scores.transpose(0, 1, 3, 2) @ qh)

        def merge(t, shape):
            return t.transpose(0, 2, 1, 3).reshape(shape)

        return merge(gq, q.data.shape), merge(gk, k.data.shape), merge(gv, v.data.shape)

    return _op(out, [q, k, v], bwd, "mha_core")


# ---------------------------------------------------------------------------
# reverse-mode differentiation
# ---------------------------------------------------------------------------


def _topological_nodes(loss):
    """The producing nodes of ``loss``, each after the nodes of its inputs."""
    nodes = []
    seen = set()
    stack = [(loss.node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for t in node.inputs:
            if t.node is not None and id(t.node) not in seen:
                stack.append((t.node, False))
    return nodes


def backward(loss):
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires-grad leaf.

    ``loss`` must be a 0-d tensor. Each recorded node is visited exactly once;
    a tensor consumed by several ops receives the sum of all path gradients.
    Existing ``grad`` buffers are accumulated into, not overwritten. A leaf's
    new gradient may share memory with another leaf's or with an upstream
    gradient, so never change a gradient in place; assign a new array.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    one = np.ones((), dtype=np.float64)
    if loss.node is None:
        if loss.requires_grad:
            loss.grad = one if loss.grad is None else loss.grad + one
        return
    grads = {id(loss.node): one}
    for node in reversed(_topological_nodes(loss)):
        g_out = grads.pop(id(node), None)
        if g_out is None:
            continue
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            if t.node is None:
                t.grad = g if t.grad is None else t.grad + g
            else:
                key = id(t.node)
                grads[key] = g if key not in grads else grads[key] + g


def zero_grads(params):
    for p in params:
        p.grad = None


def finite_diff_check(f, params, h=1e-5, max_entries_per_param=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic closure rebuilding the scalar loss from the
    current values of ``params``. Error per entry is
    |analytic - numeric| / max(1, |analytic|). With ``max_entries_per_param``
    set, at most that many entries of each tensor are probed (sampled with
    ``rng``); otherwise every entry is checked.
    """
    params = list(params)
    zero_grads(params)
    backward(f())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        if max_entries_per_param is not None and flat.size > max_entries_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            indices = rng.choice(flat.size, size=max_entries_per_param, replace=False)
        else:
            indices = range(flat.size)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f().data)
            flat[i] = orig - h
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# parameter initialization and checkpoints
# ---------------------------------------------------------------------------


def init_affine(rng, fan_in, fan_out):
    """Weight ~ U(-1, 1)/sqrt(fan_in), bias zero; both trainable."""
    bound = 1.0 / math.sqrt(fan_in)
    w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


def init_gaussian(rng, shape):
    """Standard-normal tensor, trainable."""
    return Tensor(rng.standard_normal(size=shape), requires_grad=True)


def save_checkpoint(path, arrays, meta=None):
    """Write named float64 arrays plus a JSON metadata block to an .npz file.

    The layout is the stock numpy archive: one float64 entry per name (the
    shape table lives in the npz headers) plus a reserved ``__meta__`` JSON
    string carrying ``format_version`` and caller metadata. Round-trips are
    bit-exact. Returns the actual path written (numpy appends ``.npz``).
    """
    payload = {}
    for name, value in arrays.items():
        if name.startswith("__"):
            raise ValueError(f"array name {name!r} collides with reserved keys")
        data = value.data if isinstance(value, Tensor) else np.asarray(value)
        payload[name] = np.asarray(data, dtype=np.float64)
    meta = dict(meta or {})
    meta["format_version"] = CHECKPOINT_FORMAT_VERSION
    blob = np.array(json.dumps(meta, sort_keys=True))
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    np.savez(path, **{_META_KEY: blob}, **payload)
    return path


def load_checkpoint(path):
    """Read back (arrays, meta) written by :func:`save_checkpoint`."""
    with np.load(path, allow_pickle=False) as z:
        if _META_KEY not in z:
            raise ValueError(f"{path} is not a parameter checkpoint (missing metadata)")
        meta = json.loads(str(z[_META_KEY]))
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format_version {version!r}")
        arrays = {name: z[name] for name in z.files if name != _META_KEY}
    return arrays, meta
