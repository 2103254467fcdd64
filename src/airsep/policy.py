"""Set-transformer policy: a learnable classifier token conditioned on ownship
features attends over intruder tokens; the encoded token feeds both the 3-way
advisory head and the state-value head.

The value head works in normalized return units. :class:`ValueNormalizer`,
kept on the parameters and saved with them, maps its output back to reward
units: :func:`forward_batch` gives the raw head output the trainer fits,
:func:`forward` and :func:`act` give values in reward units.

No positional encodings anywhere: intruders form an unordered set and the
network is permutation-invariant by construction. :func:`forward_batch` runs
a batch of observations with different intruder counts at once: each row is
zero-padded to the batch's largest count and the attention masks the padding
out, so a padded key gets weight exactly 0 (a zero-intruder observation
attends to its classifier token alone). The last encoder layer is pooling by
multi-head attention with the classifier token as its one seed (Set
Transformer, Lee et al. 2019): only that row queries, so its attention
output, second layer norm and FFN are computed for that row alone.
:func:`forward_tensors`, :func:`forward` and :func:`act` take one observation
(a batch of one, without padding) or a stacked one (one world step, one
intruder count), whose rows get the bits of each observation run alone.

Each :class:`EncoderLayerParams` owns its attention's projections (``attn_*``)
around :func:`numerics.mha_core`; field order fixes the checkpoint names.
"""

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import config as config_mod, numerics as nm
from .airspace import INTRUDER_FEATURES, Advisory
from .numerics import Tensor

OWNSHIP_DIM = 2
INTRUDER_DIM = len(INTRUDER_FEATURES)
N_ACTIONS = 3
LAYER_NORM_EPS = 1e-5
#: lower bound on the return variance, so a batch of equal returns cannot blow up
#: the normalized targets (the same clamp as MAPPO's value normalizer)
VALUE_VAR_FLOOR = 1e-2


@dataclass(frozen=True)
class PolicyConfig:
    d_emb: int = 128
    d_ff: int = 512
    heads: int = 16
    layers: int = 1

    def __post_init__(self):
        if min(self.d_emb, self.d_ff, self.heads, self.layers) < 1:
            raise ValueError("all network dimensions must be >= 1")
        if self.d_emb % self.heads != 0:
            raise ValueError(f"d_emb {self.d_emb} not divisible by heads {self.heads}")


@dataclass
class ValueNormalizer:
    """Running mean and variance of every lambda-return the value head was fit to.

    The head predicts ``(G - mean) / std``; :meth:`denormalize` maps a
    prediction back to reward units. Fresh statistics (no returns seen) are
    the identity map, bit for bit.
    """

    count: int = 0
    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        # written so that NaN fails it
        if not (self.count >= 0 and -math.inf < self.mean < math.inf and 0.0 <= self.var < math.inf):
            raise ValueError("count must be >= 0, mean finite and var finite and >= 0")

    @property
    def std(self):
        return math.sqrt(max(self.var, VALUE_VAR_FLOOR))

    def update(self, returns):
        """Fold a batch of returns into the statistics (parallel-moments merge)."""
        returns = np.asarray(returns, dtype=np.float64)
        n = returns.size
        if n == 0:
            return
        batch_mean, batch_var = float(returns.mean()), float(returns.var())
        if self.count == 0:
            self.count, self.mean, self.var = n, batch_mean, batch_var
            return
        total = self.count + n
        delta = batch_mean - self.mean
        self.var = (
            self.var * self.count + batch_var * n + delta * delta * self.count * n / total
        ) / total
        self.mean += delta * n / total
        self.count = total

    def normalize(self, returns):
        return (returns - self.mean) / self.std

    def denormalize(self, value):
        return self.mean + self.std * value


@dataclass
class EncoderLayerParams:
    """One pre-norm layer: attention with its q, k, v, o projections, then the FFN.
    Field order is checkpoint order; ``init_params`` draws in the same order."""

    ln1_gain: Tensor
    ln1_bias: Tensor
    attn_wq: Tensor
    attn_bq: Tensor
    attn_wk: Tensor
    attn_bk: Tensor
    attn_wv: Tensor
    attn_bv: Tensor
    attn_wo: Tensor
    attn_bo: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


@dataclass
class PolicyParams:
    """All learnable parameters; a single instance serves every agent and env."""

    config: PolicyConfig
    cls_base: Tensor
    own_w: Tensor
    own_b: Tensor
    own_ln_gain: Tensor
    own_ln_bias: Tensor
    intr_w: Tensor
    intr_b: Tensor
    intr_ln_gain: Tensor
    intr_ln_bias: Tensor
    layers: list = field(default_factory=list)
    pi_w: Tensor = None
    pi_b: Tensor = None
    v_w: Tensor = None
    v_b: Tensor = None
    value_norm: ValueNormalizer = field(default_factory=ValueNormalizer)

    def named_parameters(self):
        """Flat name -> Tensor map in field order; the fields of encoder layer ``i``
        are prefixed ``enc{i}_``. The names are the checkpoint format."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[f.name] = value
            elif f.name == "layers":
                for i, layer in enumerate(value):
                    for lf in fields(layer):
                        out[f"enc{i}_{lf.name}"] = getattr(layer, lf.name)
        return out

    def tensors(self):
        return list(self.named_parameters().values())

    def n_parameters(self):
        return sum(t.size for t in self.tensors())


def _ln_pair(d):
    gain = Tensor(np.ones(d), requires_grad=True)
    bias = Tensor(np.zeros(d), requires_grad=True)
    return gain, bias


def init_params(config, rng):
    """Fresh parameters: affine weights U(+/-1/sqrt(fan_in)), biases zero,
    classifier base token standard Gaussian."""
    d, dff = config.d_emb, config.d_ff
    own_w, own_b = nm.init_affine(rng, OWNSHIP_DIM + d, d)
    own_ln_gain, own_ln_bias = _ln_pair(d)
    intr_w, intr_b = nm.init_affine(rng, INTRUDER_DIM, d)
    intr_ln_gain, intr_ln_bias = _ln_pair(d)
    layers = []
    for _ in range(config.layers):
        # query, key, value and output projections, each (weight, bias)
        attention = [t for _ in range(4) for t in nm.init_affine(rng, d, d)]
        ffn = [*nm.init_affine(rng, d, dff), *nm.init_affine(rng, dff, d)]
        layers.append(EncoderLayerParams(*_ln_pair(d), *attention, *_ln_pair(d), *ffn))
    pi_w, pi_b = nm.init_affine(rng, d, N_ACTIONS)
    v_w, v_b = nm.init_affine(rng, d, 1)
    return PolicyParams(
        config=config,
        cls_base=Tensor(rng.standard_normal(size=(d,)), requires_grad=True),
        own_w=own_w, own_b=own_b,
        own_ln_gain=own_ln_gain, own_ln_bias=own_ln_bias,
        intr_w=intr_w, intr_b=intr_b,
        intr_ln_gain=intr_ln_gain, intr_ln_bias=intr_ln_bias,
        layers=layers,
        pi_w=pi_w, pi_b=pi_b, v_w=v_w, v_b=v_b,
    )


def parameter_count(config):
    """Closed-form learnable-parameter count for a configuration."""
    d, dff, m = config.d_emb, config.d_ff, config.layers
    adapters = d + ((OWNSHIP_DIM + d) * d + d + 2 * d) + (INTRUDER_DIM * d + d + 2 * d)
    per_layer = 2 * d + 4 * (d * d + d) + 2 * d + (d * dff + dff) + (dff * d + d)
    heads = (d * N_ACTIONS + N_ACTIONS) + (d + 1)
    return adapters + m * per_layer + heads


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def make_cls_token(ownship, params):
    """Condition the learnable base token on the ownship block:
    layer_norm(gelu(affine(concat(base, ownship)))).

    ``ownship`` is one (2,) block or a batch (..., 2), with one token per block.
    """
    own = Tensor(ownship)
    base = nm.add(Tensor(np.zeros(own.shape[:-1] + params.cls_base.shape)), params.cls_base)
    fused = nm.concat([base, own], axis=-1)
    pre = nm.affine(fused, params.own_w, params.own_b)
    return nm.layer_norm(nm.gelu(pre), params.own_ln_gain, params.own_ln_bias, eps=LAYER_NORM_EPS)


def make_intruder_tokens(intruders, params):
    """Shared affine + layer norm per intruder row, for (n, 7) or (B, n, 7)
    rows; None when there are no rows."""
    x = Tensor(intruders)
    if x.shape[-2] == 0:
        return None
    pre = nm.affine(x, params.intr_w, params.intr_b)
    return nm.layer_norm(pre, params.intr_ln_gain, params.intr_ln_bias, eps=LAYER_NORM_EPS)


def _encoder(tokens, key_mask, params):
    """Pre-norm encoder over (B, n, d) tokens; returns the classifier rows (B, 1, d).

    The last layer pools: only the classifier row queries (keys and values
    still come from every token), and its FFN runs on that row alone.
    """
    heads = params.config.heads
    x = tokens
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        normed = nm.layer_norm(x, layer.ln1_gain, layer.ln1_bias, eps=LAYER_NORM_EPS)
        queries = normed
        if i == last:
            x = nm.narrow(x, 1, 0, 1)
            queries = nm.narrow(normed, 1, 0, 1)
        q = nm.affine(queries, layer.attn_wq, layer.attn_bq)
        k = nm.affine(normed, layer.attn_wk, layer.attn_bk)
        v = nm.affine(normed, layer.attn_wv, layer.attn_bv)
        mixed = nm.mha_core(q, k, v, heads, key_mask)
        x = nm.add(x, nm.affine(mixed, layer.attn_wo, layer.attn_bo))
        normed = nm.layer_norm(x, layer.ln2_gain, layer.ln2_bias, eps=LAYER_NORM_EPS)
        hidden = nm.gelu(nm.affine(normed, layer.ffn_w1, layer.ffn_b1))
        x = nm.add(x, nm.affine(hidden, layer.ffn_w2, layer.ffn_b2))
    return x


def pad_observations(observations):
    """Stack observations into ``ownship`` (B, 2), zero-padded ``intruders``
    (B, T, 7) with T the largest intruder count, and ``counts`` (B,): a PPO
    minibatch, or the decision cycle's stack of one intruder count (no padding)."""
    counts = np.array([obs.n_intruders for obs in observations], dtype=np.int64)
    ownship = np.array([obs.ownship for obs in observations], dtype=np.float64).reshape(-1, OWNSHIP_DIM)
    intruders = np.zeros((len(observations), int(counts.max(initial=0)), INTRUDER_DIM))
    for row, obs in zip(intruders, observations):
        row[:obs.n_intruders] = obs.intruders
    return ownship, intruders, counts


def forward_batch(ownship, intruders, counts, params):
    """Graph-building forward pass over a batch of padded observations.

    ``ownship`` is (B, 2), ``intruders`` (B, T, 7) and row ``b`` holds
    ``counts[b]`` real intruders followed by padding, which the attention
    masks out. Returns logits (B, 3) and the value head's raw output (B,),
    in normalized return units.
    """
    counts = np.asarray(counts)
    b, t = intruders.shape[0], intruders.shape[1]
    # classifier token, pooled row and heads stay (B, 1, .): one product per row unrecorded
    cls_tok = make_cls_token(np.reshape(ownship, (b, 1, OWNSHIP_DIM)), params)
    intr_tok = make_intruder_tokens(intruders, params)
    tokens = cls_tok if intr_tok is None else nm.concat([cls_tok, intr_tok], axis=1)
    key_mask = None
    if np.any(counts != t):
        key_mask = np.concatenate([np.ones((b, 1), dtype=bool), np.arange(t) < counts[:, None]], axis=1)
    pooled = _encoder(tokens, key_mask, params)
    logits = nm.reshape(nm.affine(pooled, params.pi_w, params.pi_b), (b, N_ACTIONS))
    value = nm.reshape(nm.affine(pooled, params.v_w, params.v_b), (b,))
    return logits, value


def forward_tensors(obs, params):
    """Graph-building forward pass of one observation (a batch of one, no
    padding) or a stacked one: logits (3,) or (B, 3) and the value head's raw
    output, 0-d or (B,), in normalized return units."""
    ownship = np.asarray(obs.ownship, dtype=np.float64).reshape(-1, OWNSHIP_DIM)
    b, n, rows = len(ownship), obs.n_intruders, np.shape(obs.ownship)[:-1]
    intruders = np.asarray(obs.intruders, dtype=np.float64).reshape(b, n, INTRUDER_DIM)
    logits, value = forward_batch(ownship, intruders, np.full(b, n), params)
    return nm.reshape(logits, rows + (N_ACTIONS,)), nm.reshape(value, rows)


def forward(obs, params):
    """Advisory logits and state value in reward units, as plain numbers (no
    recorded graph); a stacked observation gives a list of values."""
    with nm.no_grad():
        logits, value = forward_tensors(obs, params)
    return logits.data, params.value_norm.denormalize(value.data).tolist()


def act(obs, params, rng=None, mode="sample"):
    """Draw or argmax an advisory; returns (advisory, log_prob, value in reward units),
    or for a stacked observation three lists, drawing one ``rng.choice`` per row in order."""
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown action mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sample mode needs a seeded rng")
    logits, value = forward(obs, params)
    rows = np.reshape(logits, (-1, N_ACTIONS))
    m = rows.max(axis=1)
    sums = np.exp(rows - m[:, None]).sum(axis=1).tolist()
    logp = rows - (m + list(map(math.log, sums)))[:, None]  # math.log: np.log rounds differently
    if mode == "greedy":
        chosen = np.argmax(rows, axis=1).tolist()
    else:
        chosen = [int(rng.choice(N_ACTIONS, p=p)) for p in np.exp(logp)]
    log_probs = [row[a] for row, a in zip(logp.tolist(), chosen)]
    if logits.ndim == 1:
        return Advisory(chosen[0]), log_probs[0], value
    return list(map(Advisory, chosen)), log_probs, value


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_policy(path, params, meta=None, moments=None):
    """Checkpoint all parameters plus the network configuration, the value
    normalizer's statistics and caller metadata; ``moments`` adds optimizer
    arrays, each named ``adam_m.<name>`` or ``adam_v.<name>`` after its parameter."""
    meta = dict(meta or {})
    meta["network"] = asdict(params.config)
    meta["value_normalization"] = asdict(params.value_norm)
    return nm.save_checkpoint(path, params.named_parameters() | (moments or {}), meta)


def load_policy(path, checkpoint=None):
    """Rebuild (params, meta) from the checkpoint at ``path``, or from its ``(arrays, meta)``
    already read; forward passes are bit-identical.

    A checkpoint without value-normalization statistics gets fresh (identity)
    ones. A missing network block, metadata that does not fit, an array that is
    neither a parameter nor an ``adam_m.``/``adam_v.`` moment of one, or one of
    another shape than its parameter raises ValueError; so does anything
    :func:`numerics.load_checkpoint` rejects (a non-finite weight among them).
    """
    arrays, meta = checkpoint or nm.load_checkpoint(path)
    if "network" not in meta:
        raise ValueError(f"{path} is not a policy checkpoint: it has no network block")
    config = config_mod.from_fields(PolicyConfig, meta["network"], "checkpoint network")
    value_norm = config_mod.from_fields(
        ValueNormalizer, meta.get("value_normalization"), "checkpoint value_normalization"
    )
    params = init_params(config, np.random.default_rng(0))
    named = params.named_parameters()
    owner = {prefix + name: name for prefix in ("", "adam_m.", "adam_v.") for name in named}
    missing = set(named) - set(arrays)
    extra = set(arrays) - set(owner)
    if missing or extra:
        raise ValueError(f"{path} does not fit its network: missing={sorted(missing)} extra={sorted(extra)}")
    for name, stored in arrays.items():
        if stored.shape != named[owner[name]].data.shape:
            raise ValueError(f"{path} does not fit its network: {name} has shape {stored.shape}")
    for name, tensor in named.items():
        tensor.data = arrays[name].astype(np.float64, copy=True)
    params.value_norm = value_norm
    return params, meta
