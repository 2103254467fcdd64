"""The batched, masked policy forward and PPO loss against a per-sample reference.

The reference is the per-observation network as it was before batching: one
graph per observation, no padding, every encoder layer a full self-attention
over all tokens (einsum attention core), and the PPO loss built term by term
per transition. The batched path (padding, key masks, a classifier-only last
layer, vector losses) must reproduce its logits, values and every parameter
gradient to 1e-12.
"""

import functools
import gc
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from airsep import numerics as nm
from airsep.featurize import EgoObservation
from airsep.policy import (
    LAYER_NORM_EPS, PolicyConfig, ValueNormalizer, _encoder, act, forward, forward_batch, forward_tensors,
    init_params, make_cls_token, make_intruder_tokens, pad_observations,
)
from airsep.ppo import HyperParams, ppo_loss

TOL = 1e-12
HYPER = HyperParams()


# ---------------------------------------------------------------------------
# per-sample reference
# ---------------------------------------------------------------------------


def _mha_core_reference(q, k, v, heads):
    n, d = q.data.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    qh = q.data.reshape(n, heads, dh)
    kh = k.data.reshape(n, heads, dh)
    vh = v.data.reshape(n, heads, dh)
    scores = np.einsum("ihd,jhd->hij", qh, kh) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = np.einsum("hij,jhd->ihd", attn, vh).reshape(n, d)

    def bwd(g):
        gh = g.reshape(n, heads, dh)
        d_attn = np.einsum("ihd,jhd->hij", gh, vh)
        gv = np.einsum("hij,ihd->jhd", attn, gh).reshape(n, d)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        gq = scale * np.einsum("hij,jhd->ihd", d_scores, kh).reshape(n, d)
        gk = scale * np.einsum("hij,ihd->jhd", d_scores, qh).reshape(n, d)
        return gq, gk, gv

    return nm._op(out, [q, k, v], bwd, "mha_core_reference")


def _self_attention_reference(tokens, layer, heads):
    q = nm.add(nm.matmul(tokens, layer.attn_wq), layer.attn_bq)
    k = nm.add(nm.matmul(tokens, layer.attn_wk), layer.attn_bk)
    v = nm.add(nm.matmul(tokens, layer.attn_wv), layer.attn_bv)
    return nm.add(nm.matmul(_mha_core_reference(q, k, v, heads), layer.attn_wo), layer.attn_bo)


def _forward_reference(obs, params):
    """(logits (3,), raw value 0-d) of one observation, one graph, no padding."""
    d = params.config.d_emb
    fused = nm.concat([params.cls_base, nm.Tensor(obs.ownship)], axis=0)
    pre = nm.add(nm.matmul(fused, params.own_w), params.own_b)
    cls_tok = nm.layer_norm(nm.gelu(pre), params.own_ln_gain, params.own_ln_bias, eps=LAYER_NORM_EPS)
    tokens = nm.reshape(cls_tok, (1, d))
    if obs.intruders.shape[0]:
        pre = nm.add(nm.matmul(nm.Tensor(obs.intruders), params.intr_w), params.intr_b)
        intr = nm.layer_norm(pre, params.intr_ln_gain, params.intr_ln_bias, eps=LAYER_NORM_EPS)
        tokens = nm.concat([tokens, intr], axis=0)
    x = tokens
    for layer in params.layers:
        normed = nm.layer_norm(x, layer.ln1_gain, layer.ln1_bias, eps=LAYER_NORM_EPS)
        x = nm.add(x, _self_attention_reference(normed, layer, params.config.heads))
        normed = nm.layer_norm(x, layer.ln2_gain, layer.ln2_bias, eps=LAYER_NORM_EPS)
        hidden = nm.gelu(nm.add(nm.matmul(normed, layer.ffn_w1), layer.ffn_b1))
        x = nm.add(x, nm.add(nm.matmul(hidden, layer.ffn_w2), layer.ffn_b2))
    cls_out = nm.narrow(x, 0, 0, 1)
    logits = nm.reshape(nm.add(nm.matmul(cls_out, params.pi_w), params.pi_b), (3,))
    value = nm.reshape(nm.add(nm.matmul(cls_out, params.v_w), params.v_b), ())
    return logits, value


def _loss_reference(params, observations, mb):
    """The PPO minibatch loss built one transition at a time."""
    eps = HYPER.clip_eps
    surrogate_terms, value_terms, entropy_terms = [], [], []
    for j, obs in enumerate(observations):
        logits, value = _forward_reference(obs, params)
        lsm = nm.log_softmax(logits)
        ratio = nm.exp(nm.pick(lsm, mb["actions"][j]) - float(mb["logp_old"][j]))
        a = float(mb["advantages"][j])
        surrogate_terms.append(nm.minimum(ratio * a, nm.clip(ratio, 1.0 - eps, 1.0 + eps) * a))
        entropy_terms.append(nm.neg(nm.tsum(nm.mul(nm.exp(lsm), lsm))))
        ret, old = float(mb["returns"][j]), float(mb["values_old"][j])
        v_clip_err = nm.clip(value - old, -eps, eps) + (old - ret)
        value_terms.append(nm.maximum(nm.square(value - ret), nm.square(v_clip_err)))
    n = len(observations)
    policy_loss = nm.neg(functools.reduce(nm.add, surrogate_terms)) / n
    value_loss = functools.reduce(nm.add, value_terms) * (0.5 / n)
    entropy = functools.reduce(nm.add, entropy_terms) / n
    return policy_loss + value_loss * HYPER.vf_coef - entropy * HYPER.entropy_coef


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _observation(rng, n):
    theta = rng.uniform(-np.pi, np.pi, n)
    intruders = np.column_stack([
        rng.uniform(0.0, 0.5, n), rng.uniform(-0.1, 0.4, n), np.sin(theta), np.cos(theta),
        (rng.uniform(size=n) < 0.3).astype(float), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
    ]).reshape(n, 7)
    return EgoObservation(ownship=rng.uniform(0, 1, 2), intruders=intruders)


def _minibatch(rng, b):
    return {
        "actions": rng.integers(0, 3, b),
        "logp_old": rng.uniform(-1.6, -0.6, b),
        "advantages": rng.standard_normal(b),
        "returns": rng.standard_normal(b),
        "values_old": rng.standard_normal(b),
    }


CASES = st.fixed_dictionaries({
    "layers": st.integers(1, 3),
    "counts": st.lists(st.integers(0, 19), min_size=1, max_size=6),
    "seed": st.integers(0, 2**32 - 1),
})
SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


def _setup(case):
    rng = np.random.default_rng(case["seed"])
    params = init_params(PolicyConfig(d_emb=8, d_ff=16, heads=2, layers=case["layers"]), rng)
    observations = [_observation(rng, n) for n in case["counts"]]
    return params, observations, _minibatch(rng, len(observations))


def _batched(params, observations):
    with nm.no_grad():
        logits, value = forward_batch(*pad_observations(observations), params)
    return logits.data, value.data


def _gradients(params, build):
    tensors = params.tensors()
    nm.zero_grads(tensors)
    nm.backward(build())
    return [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]


def _batched_loss(params, observations, mb):
    keys = ("actions", "logp_old", "advantages", "returns", "values_old")
    return lambda: ppo_loss(params, pad_observations(observations), *(mb[k] for k in keys), HYPER)[0]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(CASES)
def test_batched_matches_per_sample_reference(case):
    params, observations, mb = _setup(case)
    logits, values = _batched(params, observations)
    assert logits.shape == (len(observations), 3) and values.shape == (len(observations),)
    with nm.no_grad():
        for i, obs in enumerate(observations):
            ref_logits, ref_value = _forward_reference(obs, params)
            assert np.max(np.abs(logits[i] - ref_logits.data)) <= TOL
            assert abs(values[i] - float(ref_value.data)) <= TOL
    got = _gradients(params, _batched_loss(params, observations, mb))
    want = _gradients(params, lambda: _loss_reference(params, observations, mb))
    for name, g, w in zip(params.named_parameters(), got, want):
        assert np.max(np.abs(g - w)) <= TOL, name


@SETTINGS
@given(CASES)
def test_recording_the_tape_changes_no_arithmetic(case):
    params, observations, _ = _setup(case)
    params.value_norm = ValueNormalizer(count=10, mean=-3.25, var=7.5)
    for obs in observations:
        logits, value = forward(obs, params)
        recorded_logits, recorded_value = forward_tensors(obs, params)
        assert recorded_logits.backward_fn is not None and recorded_value.backward_fn is not None
        assert np.array_equal(logits, recorded_logits.data)
        assert value == params.value_norm.denormalize(float(recorded_value.data))


def test_graph_is_freed_without_the_cyclic_gc():
    params, observations, mb = _setup({"layers": 2, "counts": [0, 1, 4], "seed": 0})
    build = _batched_loss(params, observations, mb)
    gc.collect()
    gc.disable()
    try:
        nm.backward(build())
        assert gc.collect() == 0
    finally:
        gc.enable()


@SETTINGS
@given(CASES, st.randoms(use_true_random=False))
def test_batch_order_permutes_outputs_and_keeps_gradients(case, random):
    params, observations, mb = _setup(case)
    perm = list(range(len(observations)))
    random.shuffle(perm)
    logits, values = _batched(params, observations)
    p_logits, p_values = _batched(params, [observations[i] for i in perm])
    assert np.max(np.abs(p_logits - logits[perm])) <= TOL
    assert np.max(np.abs(p_values - values[perm])) <= TOL
    shuffled = {k: v[perm] for k, v in mb.items()}
    got = _gradients(params, _batched_loss(params, [observations[i] for i in perm], shuffled))
    want = _gradients(params, _batched_loss(params, observations, mb))
    for name, g, w in zip(params.named_parameters(), got, want):
        assert np.max(np.abs(g - w)) <= TOL, name


@SETTINGS
@given(CASES, st.integers(1, 19), st.integers(0, 6))
def test_padding_leaves_other_rows_unchanged(case, extra, position):
    params, observations, _ = _setup(case)
    longest = max(o.n_intruders for o in observations)
    longer = _observation(np.random.default_rng(case["seed"] + 1), longest + extra)
    position = min(position, len(observations))
    padded = observations[:position] + [longer] + observations[position:]
    logits, values = _batched(params, observations)
    p_logits, p_values = _batched(params, padded)
    keep = [i for i in range(len(padded)) if i != position]
    assert np.max(np.abs(p_logits[keep] - logits)) <= TOL
    assert np.max(np.abs(p_values[keep] - values)) <= TOL


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 19), st.integers(0, 2**32 - 1))
def test_batch_of_one_needs_no_padding(layers, n, seed):
    params, (obs,), _ = _setup({"layers": layers, "counts": [n], "seed": seed})
    with nm.no_grad():
        logits, value = forward_tensors(obs, params)
    padded_logits, padded_values = _batched(params, [obs])
    assert np.array_equal(logits.data, padded_logits[0])
    assert value.data == padded_values[0]


# ---------------------------------------------------------------------------
# stacked observations: one world step, one intruder count
# ---------------------------------------------------------------------------

STACKS = st.fixed_dictionaries({
    "layers": st.integers(1, 3),
    "rows": st.integers(1, 8),
    "n": st.integers(0, 19),
    "paper_width": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})
STACK_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def _stack_setup(case):
    rng = np.random.default_rng(case["seed"])
    width = {} if case["paper_width"] else {"d_emb": 8, "d_ff": 16, "heads": 2}
    params = init_params(PolicyConfig(layers=case["layers"], **width), rng)
    params.value_norm = ValueNormalizer(count=10, mean=-3.25, var=7.5)
    return params, [_observation(rng, case["n"]) for _ in range(case["rows"])]


@STACK_SETTINGS
@given(STACKS)
def test_stacked_forward_rows_equal_per_observation_forwards(case):
    params, observations = _stack_setup(case)
    stacked = EgoObservation(*pad_observations(observations)[:2])
    assert stacked.n_intruders == case["n"]
    logits, values = forward(stacked, params)
    assert logits.shape == (case["rows"], 3) and len(values) == case["rows"]
    for i, obs in enumerate(observations):
        row_logits, row_value = forward(obs, params)
        assert np.array_equal(logits[i], row_logits)
        assert values[i] == row_value and type(values[i]) is float


@STACK_SETTINGS
@given(STACKS)
def test_stacked_act_rows_equal_per_observation_acts(case):
    params, observations = _stack_setup(case)
    stacked = EgoObservation(*pad_observations(observations)[:2])
    greedy = act(stacked, params, mode="greedy")
    assert list(zip(*greedy)) == [act(obs, params, mode="greedy") for obs in observations]
    # sample mode: twin generators draw the same advisories, one draw per row in order
    sampled = act(stacked, params, np.random.default_rng(case["seed"]), "sample")
    twin = np.random.default_rng(case["seed"])
    assert list(zip(*sampled)) == [act(obs, params, twin, "sample") for obs in observations]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.integers(1, 8), st.integers(1, 20), st.sampled_from([2, 7, 130, 512]),
    st.sampled_from([1, 3, 128, 512]), st.integers(0, 2**32 - 1),
)
def test_unrecorded_3d_products_equal_per_item_products(b, rows, k, m, seed):
    rng = np.random.default_rng(seed)
    a, w, bias = rng.standard_normal((b, rows, k)), rng.standard_normal((k, m)), rng.standard_normal(m)
    with nm.no_grad():
        prod = nm.matmul(nm.Tensor(a), nm.Tensor(w, requires_grad=True)).data
        fused = nm.affine(nm.Tensor(a), nm.Tensor(w, requires_grad=True), nm.Tensor(bias)).data
    for i in range(b):
        assert np.array_equal(prod[i], a[i] @ w)
        assert np.array_equal(fused[i], a[i] @ w + bias)
    # a recorded product stays one flattened GEMM
    recorded = nm.matmul(nm.Tensor(a, requires_grad=True), nm.Tensor(w)).data
    assert np.array_equal(recorded, (a.reshape(-1, k) @ w).reshape(b, rows, m))


def _forward_batch_2d_heads(ownship, intruders, counts, params):
    """``forward_batch`` as it was before stacking: a (B, d) classifier token,
    pooled row and heads, each product one flattened GEMM."""
    counts = np.asarray(counts)
    b, t = intruders.shape[0], intruders.shape[1]
    cls_tok = nm.reshape(make_cls_token(ownship, params), (b, 1, params.config.d_emb))
    intr_tok = make_intruder_tokens(intruders, params)
    tokens = cls_tok if intr_tok is None else nm.concat([cls_tok, intr_tok], axis=1)
    key_mask = None
    if np.any(counts != t):
        key_mask = np.concatenate([np.ones((b, 1), dtype=bool), np.arange(t) < counts[:, None]], axis=1)
    pooled = nm.reshape(_encoder(tokens, key_mask, params), (b, params.config.d_emb))
    logits = nm.affine(pooled, params.pi_w, params.pi_b)
    value = nm.reshape(nm.affine(pooled, params.v_w, params.v_b), (b,))
    return logits, value


@SETTINGS
@given(CASES, st.booleans())
def test_recorded_forward_batch_values_and_gradients_are_unchanged(case, paper_width):
    rng = np.random.default_rng(case["seed"])
    width = {} if paper_width else {"d_emb": 8, "d_ff": 16, "heads": 2}
    params = init_params(PolicyConfig(layers=case["layers"], **width), rng)
    rows = pad_observations([_observation(rng, n) for n in case["counts"]])
    weights = rng.standard_normal((len(case["counts"]), 4))
    outputs = {}

    def loss(forward_fn):
        logits, value = forward_fn(*rows, params)
        outputs[forward_fn] = logits.data, value.data
        return nm.add(nm.tsum(nm.mul(nm.log_softmax(logits), nm.Tensor(weights[:, :3]))),
                      nm.tsum(nm.mul(value, nm.Tensor(weights[:, 3]))))

    got = _gradients(params, lambda: loss(forward_batch))
    want = _gradients(params, lambda: loss(_forward_batch_2d_heads))
    for g, w in zip(outputs[forward_batch], outputs[_forward_batch_2d_heads]):
        assert np.array_equal(g, w)
    for name, g, w in zip(params.named_parameters(), got, want):
        assert np.array_equal(g, w), name
