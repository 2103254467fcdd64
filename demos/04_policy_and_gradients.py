"""Policy-network tour: classifier-token conditioning, permutation invariance,
variable intruder counts, and a finite-difference audit of the gradients.

Run: python demos/04_policy_and_gradients.py
"""

from dataclasses import asdict

import numpy as np

from airsep import numerics as nm
from airsep.featurize import EgoObservation
from airsep.policy import PolicyConfig, act, forward, forward_tensors, init_params, parameter_count


def random_obs(rng, n):
    intr = np.empty((n, 7))
    if n:
        theta = rng.uniform(-np.pi, np.pi, n)
        intr[:, 0] = rng.uniform(0, 0.5, n)
        intr[:, 1] = intr[:, 0] - 0.08
        intr[:, 2], intr[:, 3] = np.sin(theta), np.cos(theta)
        intr[:, 4] = (rng.uniform(size=n) < 0.3).astype(float)
        intr[:, 5] = rng.uniform(-1, 1, n)
        intr[:, 6] = rng.uniform(-1, 1, n)
    return EgoObservation(ownship=rng.uniform(0, 1, 2), intruders=intr)


def main():
    config = PolicyConfig()  # 128-wide, 512 feed-forward, 16 heads, 1 encoder layer
    print(f"configuration {asdict(config)}: {parameter_count(config):,} parameters")
    rng = np.random.default_rng(0)
    params = init_params(config, rng)

    print("\nthe same network handles any intruder count, including zero:")
    for n in (0, 1, 5, 19):
        logits, value = forward(random_obs(rng, n), params)
        print(f"  {n:2d} intruders -> logits {np.round(logits, 3)}, value {value:+.3f}")

    obs = random_obs(rng, 6)
    base_logits, base_value = forward(obs, params)
    worst = 0.0
    for _ in range(50):
        perm = rng.permutation(6)
        logits, value = forward(EgoObservation(obs.ownship, obs.intruders[perm]), params)
        worst = max(worst, np.max(np.abs(logits - base_logits)), abs(value - base_value))
    print(f"\nshuffling intruders 50 times moves the outputs by at most {worst:.2e}")

    advisory, log_prob, value = act(obs, params, rng, mode="sample")
    print(f"sampled advisory: {advisory.name} (log-prob {log_prob:+.3f}, value {value:+.3f})")

    print("\nfinite-difference audit of a compact network (every parameter):")
    small = PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1)
    small_params = init_params(small, rng)
    small_obs = random_obs(rng, 3)

    def loss():
        logits, value = forward_tensors(small_obs, small_params)
        picked = nm.pick(nm.log_softmax(logits), 1)
        return nm.add(nm.neg(picked), nm.square(value))

    err = nm.finite_diff_check(loss, small_params.tensors())
    print(f"  max relative error over {sum(t.size for t in small_params.tensors()):,} parameters: {err:.2e}")


if __name__ == "__main__":
    main()
