"""Tensor-core oracles: op examples, backward semantics, finite-difference checks, file formats."""

import ast
import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from airsep import numerics as nm
from airsep.harness import _op_gradient_checks
from airsep.numerics import (
    NonFiniteError,
    ShapeError,
    Tensor,
    backward,
    finite_diff_check,
)


def _rand(shape, seed, scale=1.0, grad=True):
    return Tensor(scale * np.random.default_rng(seed).standard_normal(shape), requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    b = _rand((3, 4), 0, grad=False)
    out = nm.matmul(Tensor(np.eye(3)), b)
    assert np.array_equal(out.data, b.data)


def test_matmul_scalar_case():
    out = nm.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 6.0


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expected[i, j] += a[i, k] * b[k, j]
    out = nm.matmul(Tensor(a), Tensor(b))
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.matmul(_rand((4, 5), 0), _rand((4, 3), 1))


def test_matmul_vector_promotions():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(5)
    m = rng.standard_normal((5, 2))
    out = nm.matmul(Tensor(v), Tensor(m))
    assert out.data.shape == (2,)
    assert np.allclose(out.data, v @ m)
    out2 = nm.matmul(Tensor(m.T), Tensor(v))
    assert out2.data.shape == (2,)


# ---------------------------------------------------------------------------
# gelu
# ---------------------------------------------------------------------------


def _erf_series(z, terms=40):
    # independent power series: erf(z) = 2/sqrt(pi) * sum (-1)^n z^(2n+1) / (n! (2n+1))
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * z ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


def test_gelu_zero():
    assert nm.gelu(Tensor(0.0)).data == 0.0


def test_gelu_asymptotic_identity():
    assert abs(nm.gelu(Tensor(10.0)).item() - 10.0) < 1e-9


def test_gelu_at_one_vs_erf_series():
    phi_1 = 0.5 * (1.0 + _erf_series(1.0 / math.sqrt(2.0)))
    expected = 1.0 * phi_1  # 0.8413447...
    assert abs(expected - 0.8413447) < 1e-7
    assert abs(nm.gelu(Tensor(1.0)).item() - expected) < 1e-12


def _fresh_python(*args, cwd):
    """Run ``python *args`` in a new interpreter that imports airsep from this checkout."""
    src = str(Path(nm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_airsep_leaves_scipy_special_and_f2py_unloaded(tmp_path):
    code = "import sys, airsep; print([m for m in ('scipy.special', 'numpy.f2py') if m in sys.modules])"
    assert _fresh_python("-c", code, cwd=tmp_path).strip() == "[]"


def test_erf_is_scipy_special_erf():
    import scipy.special

    assert nm.erf is scipy.special.erf


@pytest.mark.parametrize("where", ["no_scipy", "no_extension_file"])
def test_erf_loader_names_the_scipy_it_needs(monkeypatch, where):
    if where == "no_scipy":
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    else:
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent.so"])
    with pytest.raises(ImportError, match=r"scipy>=1\.17\.1"):
        nm._load_erf()


_GELU_FRESH = """
import sys
import numpy as np
from airsep import numerics as nm
t = nm.Tensor(np.load(sys.argv[1]), requires_grad=True)
y = nm.gelu(t)
nm.backward(nm.tsum(y))
assert "scipy.special" not in sys.modules
np.save(sys.argv[2], np.stack([y.data, t.grad]))
"""


def test_gelu_edge_values_match_scipy_special_erf_without_it_imported(tmp_path):
    # x / sqrt(2) at zero, subnormal, +-1 and 1 + ulp, the middle of erf's range, and
    # past erfc's underflow (|z| > 26.55), where scipy's error handling is not set up
    # unless scipy.special was imported; -W error turns any warning into a failure
    z = np.array([0.0, -0.0, 1e-310, 1.0, -1.0, np.nextafter(1.0, 2.0), 8.0, -8.0, 26.5, -26.5,
                  27.0, -27.0, 40.0, -40.0, 1e300, -1e300])
    x = z * nm.SQRT2
    np.save(tmp_path / "x.npy", x)
    _fresh_python("-W", "error", "-c", _GELU_FRESH, "x.npy", "out.npy", cwd=tmp_path)
    forward, grad = np.load(tmp_path / "out.npy")

    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x / nm.SQRT2))
    with np.errstate(over="ignore"):
        expected_grad = 1.0 * (cdf + x * (nm.INV_SQRT_2PI * np.exp(-0.5 * x * x)))
    assert forward.tobytes() == (x * cdf).tobytes()
    assert grad.tobytes() == expected_grad.tobytes()


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------


def _unit_ln(d):
    return Tensor(np.ones(d)), Tensor(np.zeros(d))


def test_layer_norm_constant_row_is_zero():
    gain, bias = _unit_ln(4)
    out = nm.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), gain, bias)
    assert np.max(np.abs(out.data)) < 1e-9


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((6, 9)) * 3.0 + 1.0)
    gain, bias = _unit_ln(9)
    out = nm.layer_norm(x, gain, bias, eps=1e-5).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-9
    # eps biases the variance slightly below 1
    assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-4


def test_layer_norm_equals_the_numpy_var_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    for shape in [(7,), (5, 16), (2, 3, 128)]:
        x = rng.standard_normal(shape) * 4.0 + 2.0
        gain, bias = Tensor(rng.standard_normal(shape[-1])), Tensor(rng.standard_normal(shape[-1]))
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        want = (x - mu) * inv * gain.data + bias.data
        assert np.array_equal(nm.layer_norm(Tensor(x), gain, bias, eps=1e-5).data, want)


def test_layer_norm_gradients_equal_the_mean_formula_bit_for_bit():
    rng = np.random.default_rng(13)
    for shape in [(3, 1, 8), (4, 6, 16), (2, 5, 128)]:
        x = rng.standard_normal(shape) * 3.0 - 1.0
        g = rng.standard_normal(shape)
        gain = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        bias = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        out = nm.layer_norm(Tensor(x, requires_grad=True), gain, bias, eps=1e-5)
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / shape[-1] + 1e-5)
        xhat = xc * inv
        dxhat = g * gain.data
        dx = inv * (
            dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        want = (dx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1)))
        for got, expected in zip(out.backward_fn(g), want):
            assert np.array_equal(got, expected)


def test_layer_norm_hand_example():
    gain, bias = _unit_ln(3)
    out = nm.layer_norm(Tensor([1.0, 2.0, 3.0]), gain, bias, eps=0.0).data
    sigma = math.sqrt(2.0 / 3.0)
    expected = np.array([-1.0 / sigma, 0.0, 1.0 / sigma])
    assert np.allclose(out, expected, atol=1e-12)
    assert abs(out[0] + 1.2247) < 1e-4


# ---------------------------------------------------------------------------
# softmax, as exp(log_softmax)
# ---------------------------------------------------------------------------


def test_softmax_uniform():
    out = np.exp(nm.log_softmax(Tensor([0.0, 0.0, 0.0])).data)
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(7)
    a = np.exp(nm.log_softmax(Tensor(x)).data)
    b = np.exp(nm.log_softmax(Tensor(x + 123.456)).data)
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_log_ratios():
    out = np.exp(nm.log_softmax(Tensor([math.log(1.0), math.log(2.0), math.log(3.0)])).data)
    assert np.allclose(out, [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0], atol=1e-12)


def test_softmax_simplex_invariant():
    for seed in range(50):
        x = _rand((5,), seed, scale=4.0, grad=False)
        p = np.exp(nm.log_softmax(x).data)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------


def test_attention_single_key_returns_its_value_row():
    # softmax over one key is exactly 1, so every query gets that key's value row bit for bit
    q = _rand((3, 8), 9, grad=False)
    k = _rand((1, 8), 10, grad=False)
    v = _rand((1, 8), 11, grad=False)
    out = nm.mha_core(q, k, v, 2).data
    assert np.array_equal(out, np.repeat(v.data, 3, axis=0))


def test_attention_head_divisibility():
    assert 128 % 16 == 0 and 128 // 16 == 8
    tokens = _rand((4, 128), 1, grad=False)
    out = nm.mha_core(tokens, tokens, tokens, 16)
    assert out.data.shape == (4, 128)
    with pytest.raises(nm.ShapeError):
        nm.mha_core(tokens, tokens, tokens, 15)


def test_attention_permutation_equivariance():
    tokens = _rand((6, 16), 3, grad=False)
    base = nm.mha_core(tokens, tokens, tokens, 4).data
    for seed in range(20):
        perm = np.random.default_rng(seed).permutation(6)
        shuffled = Tensor(tokens.data[perm])
        permuted = nm.mha_core(shuffled, shuffled, shuffled, 4).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-10


def test_mha_core_masked_keys_get_exactly_zero_weight():
    # padded keys get weight exactly 0: a query whose only real key is the
    # first one returns that key's value row bit for bit, whatever the padding
    rng = np.random.default_rng(5)
    q = Tensor(rng.standard_normal((2, 3, 8)))
    k = Tensor(rng.standard_normal((2, 5, 8)) * 50.0)
    v = Tensor(rng.standard_normal((2, 5, 8)))
    mask = np.arange(5) < np.array([[1], [3]])
    out = nm.mha_core(q, k, v, 2, mask).data
    assert np.array_equal(out[0], np.tile(v.data[0, 0], (3, 1)))
    trimmed = nm.mha_core(Tensor(q.data[1:]), Tensor(k.data[1:, :3]), Tensor(v.data[1:, :3]), 2).data
    assert np.max(np.abs(out[1] - trimmed[0])) < 1e-14
    with pytest.raises(ShapeError):
        nm.mha_core(q, k, Tensor(v.data[:, :4]), 2)


def test_batched_ops_match_their_rows():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4, 5))
    w = rng.standard_normal((5, 2))
    out = nm.matmul(Tensor(a), Tensor(w)).data
    assert out.shape == (3, 4, 2)
    for i in range(3):
        assert np.max(np.abs(out[i] - a[i] @ w)) < 1e-14
    with pytest.raises(ShapeError):
        nm.matmul(Tensor(a), Tensor(rng.standard_normal((3, 5, 2))))
    gain, bias = Tensor(rng.standard_normal(5)), Tensor(rng.standard_normal(5))
    normed = nm.layer_norm(Tensor(a), gain, bias).data
    for i in range(3):
        assert np.max(np.abs(normed[i] - nm.layer_norm(Tensor(a[i]), gain, bias).data)) < 1e-14
    rows = Tensor(rng.standard_normal((4, 3)))
    picked = nm.pick(rows, [2, 0, 1, 2])
    assert np.array_equal(picked.data, rows.data[np.arange(4), [2, 0, 1, 2]])
    with pytest.raises(ShapeError):
        nm.pick(rows, [0, 1])


@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 3)], ids=["1d", "2d", "3d"])
def test_affine_equals_add_of_matmul_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    a, w, b = rng.standard_normal(shape), rng.standard_normal((3, 2)), rng.standard_normal(2)
    probe = Tensor(rng.standard_normal(shape[:-1] + (2,)))

    def run(build):
        leaves = [Tensor(x, requires_grad=True) for x in (a, w, b)]
        out = build(*leaves)
        backward(nm.tsum(nm.mul(out, probe)))
        return [out.data] + [t.grad for t in leaves]

    fused = run(nm.affine)
    pair = run(lambda x, y, z: nm.add(nm.matmul(x, y), z))
    for got, want in zip(fused, pair):
        assert got.shape == want.shape and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    backward(nm.square(x))
    assert x.grad == 6.0


def test_backward_gelu_at_zero():
    x = Tensor(0.0, requires_grad=True)
    backward(nm.gelu(x))
    assert abs(x.grad - 0.5) < 1e-15


def test_backward_requires_scalar():
    x = _rand((3,), 0)
    with pytest.raises(ShapeError):
        backward(nm.mul(x, 2.0))


def test_backward_visits_each_node_once_and_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    calls = []

    def identity_bwd(g):
        calls.append(g.copy())
        return (g,)

    y = nm._op(x.data.copy(), [x], identity_bwd, "identity")
    loss = nm.tsum(nm.add(y, y))  # y used twice: grads must merge before y's node runs
    backward(loss)
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.array([2.0, 2.0]))
    assert np.array_equal(x.grad, np.array([2.0, 2.0]))


def test_backward_accumulation_matches_finite_differences():
    x = _rand((4,), 8)
    weights = np.random.default_rng(1).standard_normal(4)

    def f():
        twice = nm.add(nm.mul(x, x), x)  # x feeds two paths
        return nm.tsum(nm.mul(twice, Tensor(weights)))

    assert finite_diff_check(f, [x]) < 1e-9


def test_graph_is_topologically_ordered():
    x = Tensor(2.0, requires_grad=True)
    y = nm.square(x)
    z = nm.add(nm.square(y), y)
    nodes = nm._topological_nodes(z)
    assert nodes[-1] is z and x not in nodes
    position = {id(node): i for i, node in enumerate(nodes)}
    for i, node in enumerate(nodes):
        for t in node.inputs:
            if t.backward_fn is not None:
                assert position[id(t)] < i


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        nm.exp(Tensor(1000.0))  # overflow surfaces immediately


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_rejected_by_leaves_and_op_outputs(bad):
    with pytest.raises(NonFiniteError):
        Tensor([1.0, bad, 2.0])
    with nm.no_grad(), pytest.raises(NonFiniteError):
        nm.add(Tensor([1.0, 2.0, 3.0]), bad)


@pytest.mark.parametrize("grad", [True, False], ids=["recorded", "no_grad"])
def test_non_finite_error_names_the_op_that_made_the_value(grad):
    x = Tensor([1.0, 1000.0], requires_grad=grad)
    with pytest.raises(NonFiniteError, match="^non-finite values in the output of exp$"):
        nm.exp(x)
    with pytest.raises(NonFiniteError, match="^non-finite values in the output of add_const$"):
        nm.add(x, np.inf)
    with pytest.raises(NonFiniteError, match="^non-finite values in tensor data$"):
        Tensor([np.nan], requires_grad=grad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [[1e200, -1e200], [1.7e308]], ids=["opposite", "near_max"])
def test_finite_values_whose_squares_overflow_pass_the_screen(values):
    # the sum of squares overflows here, so only the exact elementwise check can accept them
    assert np.array_equal(Tensor(values).data, values)
    with nm.no_grad():
        out = nm.add(Tensor(np.zeros(len(values))), Tensor(values))
    assert np.array_equal(out.data, values)


# ---------------------------------------------------------------------------
# finite-difference checker
# ---------------------------------------------------------------------------


def test_finite_diff_linear_is_roundoff():
    x = _rand((5,), 0)
    w = np.random.default_rng(2).standard_normal(5)
    err = finite_diff_check(lambda: nm.tsum(nm.mul(x, Tensor(w))), [x])
    assert err < 1e-9


def test_finite_diff_softmax_cross_entropy():
    w = _rand((4, 3), 1)
    x = np.random.default_rng(3).standard_normal(4)

    def f():
        logits = nm.matmul(Tensor(x), w)
        return nm.neg(nm.pick(nm.log_softmax(logits), 2))

    assert finite_diff_check(f, [w]) < 1e-6


def test_finite_diff_detects_planted_bug():
    # doubling the true gradient saturates the error measure at 0.5; dropping
    # the gradient entirely drives it to ~1; both are flagged loudly
    x = Tensor(np.full(3, 2.0), requires_grad=True)

    def doubled_grad_identity(t):
        return nm._op(t.data.copy(), [t], lambda g: (2.0 * g,), "bad_identity")

    err = finite_diff_check(lambda: nm.tsum(doubled_grad_identity(x)), [x])
    assert abs(err - 0.5) < 1e-4

    def dropped_grad_identity(t):
        return nm._op(t.data.copy(), [t], lambda g: (np.zeros_like(g),), "worse_identity")

    err = finite_diff_check(lambda: nm.tsum(dropped_grad_identity(x)), [x])
    assert abs(err - 1.0) < 1e-4


def test_op_gradients_over_many_seeds():
    worst = _op_gradient_checks(seed=123, n_seeds=100)
    assert worst, "no ops checked"
    for name, err in worst.items():
        assert err < 1e-4, f"{name} gradient error {err}"


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "w": Tensor(rng.standard_normal((7, 3))),
        "b": rng.standard_normal(3) * 1e-17,
    }
    path = nm.save_checkpoint(tmp_path / "params", arrays, meta={"note": "x"})
    loaded, meta = nm.load_checkpoint(path)
    assert meta["note"] == "x"
    assert meta["format_version"] == nm.CHECKPOINT_FORMAT_VERSION
    assert set(loaded) == {"w", "b"}
    assert np.array_equal(loaded["w"], arrays["w"].data)
    assert np.array_equal(loaded["b"], arrays["b"])


def test_checkpoint_reserved_names(tmp_path):
    with pytest.raises(ValueError):
        nm.save_checkpoint(tmp_path / "bad", {"__meta__": np.zeros(1)})


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------


def test_a_row_source_that_fails_before_its_first_row_leaves_nothing(tmp_path):
    def rows():
        raise ValueError("no first row")
        yield

    with pytest.raises(ValueError, match="no first row"):
        nm.write_csv(tmp_path / "run" / "rows.csv", ("a", "b"), rows())
    assert list(tmp_path.iterdir()) == []


def test_an_empty_row_source_writes_the_header_alone(tmp_path):
    path = nm.write_csv(tmp_path / "run" / "rows.csv", ("a", "b"), iter(()))
    assert path.read_bytes() == b"a,b\r\n"


def test_each_row_is_on_disk_before_the_next_is_drawn(tmp_path):
    path = tmp_path / "rows.csv"
    seen = []

    def rows():
        for k in range(4):
            seen.append(path.read_bytes() if path.exists() else None)
            yield (k, k / 3)

    nm.write_csv(path, ("k", "third"), rows())
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 5
    assert seen == [None] + [b"".join(lines[: k + 1]) for k in range(1, 4)]


FLOAT_EDGES = (
    5e-324, -0.0, 1e-05, 1e-04, 0.1, 1 / 3, 9007199254740992.0, 9999999999999998.0, 1e16, -1.7976931348623157e308
)


@pytest.mark.parametrize("kind", [np.float64, float])
def test_a_float_is_written_as_its_shortest_repr(tmp_path, kind):
    path = nm.write_csv(tmp_path / "floats.csv", ("v",), ([kind(v)] for v in FLOAT_EDGES))
    cells = path.read_text().splitlines()[1:]
    assert cells == [repr(float(v)) for v in FLOAT_EDGES]
    for text, v in zip(cells, FLOAT_EDGES):
        assert float(text) == v and math.copysign(1.0, float(text)) == math.copysign(1.0, v)


def test_only_numerics_imports_csv():
    importers = set()
    for path in Path(nm.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "csv" in names or (isinstance(node, ast.ImportFrom) and node.module == "csv"):
                importers.add(path.name)
    assert importers == {"numerics.py"}


def test_an_out_dir_that_is_a_folder_or_absent_under_one_passes_and_nothing_is_made(tmp_path):
    (tmp_path / "made").mkdir()
    for out in (tmp_path, tmp_path / "made", tmp_path / "new", tmp_path / "new" / "deeper"):
        nm.check_out_dir(out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["made"]


@pytest.mark.parametrize("out", ["taken", "taken/run", "taken/run/deeper"])
def test_an_out_dir_that_is_or_lies_under_a_file_is_refused(tmp_path, out):
    (tmp_path / "taken").write_bytes(b"not a folder\n")
    with pytest.raises(NotADirectoryError, match=re.escape(f"{tmp_path / 'taken'} is not a folder")):
        nm.check_out_dir(tmp_path / out)
    assert (tmp_path / "taken").read_bytes() == b"not a folder\n"
