"""Policy-network oracles: token construction, invariances, heads, checkpoints."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from airsep import numerics as nm
from airsep.airspace import Advisory
from airsep.featurize import EgoObservation
from airsep.policy import (
    VALUE_VAR_FLOOR,
    PolicyConfig,
    ValueNormalizer,
    act,
    forward,
    forward_batch,
    forward_tensors,
    init_params,
    load_policy,
    make_cls_token,
    make_intruder_tokens,
    pad_observations,
    parameter_count,
    save_policy,
)

SMALL = PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1)
TINY = PolicyConfig(d_emb=8, d_ff=16, heads=2, layers=1)


def _obs(rng, n_intruders):
    intruders = np.empty((n_intruders, 7))
    if n_intruders:
        theta = rng.uniform(-np.pi, np.pi, size=n_intruders)
        intruders[:, 0] = rng.uniform(0.0, 0.5, n_intruders)
        intruders[:, 1] = intruders[:, 0] - 0.08
        intruders[:, 2] = np.sin(theta)
        intruders[:, 3] = np.cos(theta)
        intruders[:, 4] = (rng.uniform(size=n_intruders) < 0.3).astype(float)
        intruders[:, 5] = rng.uniform(-1, 1, n_intruders)
        intruders[:, 6] = rng.uniform(-1, 1, n_intruders)
    return EgoObservation(ownship=rng.uniform(0, 1, 2), intruders=intruders)


def test_config_validation():
    with pytest.raises(ValueError, match="not divisible by heads"):
        PolicyConfig(d_emb=10, heads=4)
    with pytest.raises(ValueError, match=">= 1"):
        PolicyConfig(layers=0)


def test_cls_token_shape_and_determinism():
    params = init_params(PolicyConfig(), np.random.default_rng(0))
    own = np.array([0.5, 0.2])
    a = make_cls_token(own, params)
    b = make_cls_token(own, params)
    assert a.data.shape == (128,)
    assert np.array_equal(a.data, b.data)


def test_cls_token_injective_on_random_draws():
    params = init_params(SMALL, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for _ in range(25):
        o1, o2 = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        t1 = make_cls_token(o1, params).data
        t2 = make_cls_token(o2, params).data
        assert np.max(np.abs(t1 - t2)) > 1e-10


def test_intruder_tokens():
    params = init_params(SMALL, np.random.default_rng(3))
    assert make_intruder_tokens(np.zeros((0, 7)), params) is None
    rng = np.random.default_rng(4)
    rows = rng.uniform(-1, 1, (5, 7))
    toks = make_intruder_tokens(rows, params)
    assert toks.data.shape == (5, SMALL.d_emb)
    same = make_intruder_tokens(np.tile(rows[0], (3, 1)), params)
    assert np.max(np.abs(same.data - same.data[0])) == 0.0


def test_forward_handles_all_intruder_counts():
    params = init_params(SMALL, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for n in (0, 1, 2, 7, 19):
        logits, value = forward(_obs(rng, n), params)
        assert logits.shape == (3,)
        assert np.all(np.isfinite(logits)) and math.isfinite(value)


def test_permutation_invariance():
    params = init_params(SMALL, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    for n in (2, 5, 11):
        obs = _obs(rng, n)
        base_logits, base_value = forward(obs, params)
        for _ in range(20):
            perm = rng.permutation(n)
            shuffled = EgoObservation(ownship=obs.ownship, intruders=obs.intruders[perm])
            logits, value = forward(shuffled, params)
            assert np.max(np.abs(logits - base_logits)) < 1e-10
            assert abs(value - base_value) < 1e-10


def test_greedy_matches_argmax():
    params = init_params(SMALL, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    for _ in range(10):
        obs = _obs(rng, 3)
        logits, value = forward(obs, params)
        advisory, log_prob, v = act(obs, params, mode="greedy")
        assert int(advisory) == int(np.argmax(logits))
        assert v == value
        assert log_prob <= 0.0


def test_uniform_policy_log_prob():
    params = init_params(SMALL, np.random.default_rng(11))
    params.pi_w.data[:] = 0.0
    params.pi_b.data[:] = 0.0
    obs = _obs(np.random.default_rng(12), 2)
    _, log_prob, _ = act(obs, params, mode="greedy")
    assert abs(log_prob - (-math.log(3.0))) < 1e-12


def test_sample_frequencies_match_probabilities():
    # every draw is the draw of a twin generator given the softmax of forward's
    # logits, so the sample frequencies are those probabilities exactly
    params = init_params(TINY, np.random.default_rng(13))
    obs = _obs(np.random.default_rng(14), 0)
    logits, _ = forward(obs, params)
    p = np.exp(logits - logits.max())
    p /= p.sum()
    m = logits.max()
    logp = logits - (m + math.log(np.exp(logits - m).sum()))
    assert np.max(np.abs(np.exp(logp) - p)) <= 1e-12
    rng, twin = np.random.default_rng(15), np.random.default_rng(15)
    drawn = set()
    for _ in range(2_000):
        advisory, log_prob, _ = act(obs, params, rng, mode="sample")
        assert int(advisory) == twin.choice(3, p=np.exp(logp))
        assert log_prob == logp[int(advisory)]
        drawn.add(int(advisory))
    assert drawn == {0, 1, 2}


def _act_per_row(obs, params, rng=None, mode="sample"):
    """``act`` as a per-row loop: one log-softmax with ``math.log``, then an argmax or a draw."""
    logits, value = forward(obs, params)
    advisories, log_probs = [], []
    for row in np.reshape(logits, (-1, 3)):
        m = row.max()
        logp = row - (m + math.log(np.exp(row - m).sum()))
        a = int(np.argmax(row)) if mode == "greedy" else int(rng.choice(3, p=np.exp(logp)))
        advisories.append(Advisory(a))
        log_probs.append(float(logp[a]))
    if logits.ndim == 1:
        return advisories[0], log_probs[0], value
    return advisories, log_probs, value


def _typed(result):
    """``act``'s result with the type of every value beside it, so ``==`` also compares types."""
    return [[(type(v), v) for v in part] if isinstance(part, list) else (type(part), part) for part in result]


def _stacked_obs(rng, rows, n_intruders):
    views = [_obs(rng, n_intruders) for _ in range(rows)]
    return EgoObservation(np.stack([v.ownship for v in views]), np.stack([v.intruders for v in views]))


@pytest.mark.parametrize("head", ["random", "sharp", "tied", "flat"])
@pytest.mark.parametrize("rows", [None, 1, 2, 8])
def test_act_equals_the_per_row_loop(head, rows):
    # every output, and the generator's state after it, equals the loop's under ==;
    # tied heads give every row the same logits, two or three of them equal
    params = init_params(TINY, np.random.default_rng(31))
    if head == "sharp":
        params.pi_w.data = params.pi_w.data * 40.0
    if head in ("tied", "flat"):
        params.pi_w.data = np.zeros_like(params.pi_w.data)
        params.pi_b.data = np.array([0.25, 0.25, -0.5] if head == "tied" else [0.0, 0.0, 0.0])
    obs_rng = np.random.default_rng(32)
    for n_intruders in (0, 1, 3):
        obs = _obs(obs_rng, n_intruders) if rows is None else _stacked_obs(obs_rng, rows, n_intruders)
        assert _typed(act(obs, params, mode="greedy")) == _typed(_act_per_row(obs, params, mode="greedy"))
        rng, twin = np.random.default_rng(33), np.random.default_rng(33)
        for _ in range(25):
            assert _typed(act(obs, params, rng)) == _typed(_act_per_row(obs, params, twin))
        assert rng.bit_generator.state == twin.bit_generator.state


def test_act_equals_the_per_row_loop_on_a_deep_stack():
    # thousands of distinct rows, so that a log-sum-exp rounded unlike math.log shows
    params = init_params(TINY, np.random.default_rng(31))
    for n_intruders in (0, 1, 3):
        obs = _stacked_obs(np.random.default_rng(40 + n_intruders), 4096, n_intruders)
        assert _typed(act(obs, params, mode="greedy")) == _typed(_act_per_row(obs, params, mode="greedy"))
        rng, twin = np.random.default_rng(41), np.random.default_rng(41)
        assert _typed(act(obs, params, rng)) == _typed(_act_per_row(obs, params, twin))
        assert rng.bit_generator.state == twin.bit_generator.state


def test_sample_requires_rng():
    params = init_params(TINY, np.random.default_rng(16))
    with pytest.raises(ValueError):
        act(_obs(np.random.default_rng(17), 1), params, mode="sample")
    with pytest.raises(ValueError):
        act(_obs(np.random.default_rng(17), 1), params, mode="nonsense")


def _evaluate_actions(obs_batch, actions, params):
    """Log-probs of ``actions``, entropies and values (reward units) from one batched forward."""
    with nm.no_grad():
        logits, values = forward_batch(*pad_observations(obs_batch), params)
    logp = nm.log_softmax(logits).data
    entropies = -(np.exp(logp) * logp).sum(axis=1)
    return logp[np.arange(len(actions)), actions], entropies, params.value_norm.denormalize(values.data)


def test_evaluate_actions_matches_single_forward():
    params = init_params(SMALL, np.random.default_rng(18))
    rng = np.random.default_rng(19)
    obs_batch = [_obs(rng, n) for n in (0, 1, 4, 9)]
    actions = [0, 2, 1, 1]
    log_probs, entropies, values = _evaluate_actions(obs_batch, actions, params)
    for i, (obs, a) in enumerate(zip(obs_batch, actions)):
        logits, value = forward(obs, params)
        lse = logits.max() + math.log(np.exp(logits - logits.max()).sum())
        assert abs(log_probs[i] - (logits[a] - lse)) < 1e-12
        assert abs(values[i] - value) < 1e-12
        assert 0.0 <= entropies[i] <= math.log(3.0) + 1e-12


def test_uniform_entropy_is_ln3():
    params = init_params(SMALL, np.random.default_rng(20))
    params.pi_w.data[:] = 0.0
    params.pi_b.data[:] = 0.0
    _, entropies, _ = _evaluate_actions([_obs(np.random.default_rng(21), 2)], [1], params)
    assert abs(entropies[0] - math.log(3.0)) < 1e-12


def test_parameter_count_formula():
    for layers in (1, 2, 3):
        for cfg in (
            PolicyConfig(d_emb=128, d_ff=512, heads=16, layers=layers),
            PolicyConfig(d_emb=32, d_ff=48, heads=8, layers=layers),
        ):
            params = init_params(cfg, np.random.default_rng(layers))
            assert params.n_parameters() == parameter_count(cfg)


def test_heads_share_encoder():
    params = init_params(SMALL, np.random.default_rng(22))
    obs = _obs(np.random.default_rng(23), 3)
    logits0, value0 = forward(obs, params)
    params.layers[0].ffn_w1.data[0, 0] += 0.05
    logits1, value1 = forward(obs, params)
    assert np.max(np.abs(logits1 - logits0)) > 0.0
    assert value1 != value0


def test_value_normalizer_running_moments():
    norm = ValueNormalizer()
    obs = _obs(np.random.default_rng(30), 2)
    params = init_params(SMALL, np.random.default_rng(31))
    _, head = forward_tensors(obs, params)
    assert forward(obs, params)[1] == float(head.data)  # fresh statistics are the identity
    rng = np.random.default_rng(32)
    batches = [rng.standard_normal(k) * 12.0 - 25.0 for k in (1, 40, 7, 130)]
    for b in batches:
        norm.update(b)
    everything = np.concatenate(batches)
    assert norm.count == everything.size
    assert norm.mean == pytest.approx(everything.mean(), abs=1e-12)
    assert norm.var == pytest.approx(everything.var(), rel=1e-12)
    assert norm.denormalize(norm.normalize(everything)) == pytest.approx(everything, abs=1e-12)
    flat = ValueNormalizer()
    flat.update(np.full(5, -3.0))
    assert flat.std == pytest.approx(math.sqrt(VALUE_VAR_FLOOR))


def test_checkpoint_round_trip_bit_identical(tmp_path):
    params = init_params(SMALL, np.random.default_rng(24))
    obs = _obs(np.random.default_rng(25), 4)
    params.value_norm.update(np.random.default_rng(26).standard_normal(37) * 9.0 - 20.0)
    logits0, value0 = forward(obs, params)
    path = save_policy(tmp_path / "ckpt", params, meta={"seed": 7})
    loaded, meta = load_policy(path)
    assert meta["seed"] == 7
    assert meta["network"] == asdict(SMALL)
    assert loaded.value_norm == params.value_norm
    logits1, value1 = forward(obs, loaded)
    assert np.array_equal(logits0, logits1)
    assert value0 == value1
    for name, t in params.named_parameters().items():
        assert np.array_equal(t.data, loaded.named_parameters()[name].data)


def test_named_parameters_pin_checkpoint_names_and_order():
    # the names are the checkpoint format, and the order fixes the summation
    # order of the global gradient norm, so both are pinned exactly
    params = init_params(PolicyConfig(d_emb=8, d_ff=16, heads=2, layers=2), np.random.default_rng(0))
    layer = [
        "ln1_gain", "ln1_bias",
        "attn_wq", "attn_bq", "attn_wk", "attn_bk", "attn_wv", "attn_bv", "attn_wo", "attn_bo",
        "ln2_gain", "ln2_bias", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
    ]
    expected = (
        [
            "cls_base", "own_w", "own_b", "own_ln_gain", "own_ln_bias",
            "intr_w", "intr_b", "intr_ln_gain", "intr_ln_bias",
        ]
        + [f"enc0_{name}" for name in layer]
        + [f"enc1_{name}" for name in layer]
        + ["pi_w", "pi_b", "v_w", "v_b"]
    )
    named = params.named_parameters()
    assert list(named) == expected
    assert named["enc1_attn_wo"] is params.layers[1].attn_wo
    assert named["enc0_ffn_b2"] is params.layers[0].ffn_b2
    assert params.tensors() == list(named.values())


def test_full_network_gradient_check():
    params = init_params(TINY, np.random.default_rng(26))
    obs = _obs(np.random.default_rng(27), 3)

    def f():
        logits, value = forward_tensors(obs, params)
        lsm = nm.log_softmax(logits)
        picked = nm.pick(lsm, 2)
        return nm.add(nm.neg(picked), nm.square(value))

    err = nm.finite_diff_check(f, params.tensors())
    assert err < 1e-4
