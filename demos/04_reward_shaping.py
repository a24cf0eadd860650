"""Reward shaping around subgoals: actionable distance, intrinsic rewards,
the proxy reward and softmax-credited individual rewards.

Run:  python3 demos/04_reward_shaping.py
"""

import numpy as np

from goalmix.config import TrainConfig
from goalmix.env import SkirmishEnv, preset
from goalmix.rewards import actionable_distance, proxy_reward, softmax_credit
from goalmix.training import Trainer, stack_episodes


def distance(a, b):
    return actionable_distance(np.array([a], dtype=np.float64), np.array(b, dtype=np.float64))[0]


def main():
    print("actionable distance = 1 - cosine(Q-vector, Q-vector):")
    print(f"  identical     -> {distance([1, 2, 3], [1, 2, 3]):.4f}")
    print(f"  orthogonal    -> {distance([1, 0], [0, 1]):.4f}")
    print(f"  [1,1] vs [1,0]-> {distance([1, 1], [1, 0]):.4f}  (= 1 - 1/sqrt(2))")

    cfg = TrainConfig(seed=3, eval_episodes=2).validate()
    trainer = Trainer(cfg, lambda: SkirmishEnv(preset("skirmish-2v2")),
                      rng=np.random.default_rng(3))
    for _ in range(40):
        trainer.collect_episode()
    episode = trainer.buffer.episodes()[-1]
    batch = stack_episodes([episode])  # a batch of M=1

    # the trainer's own block preparation: subgoals, D_Q targets and the
    # shaped rewards, all from one forward of the block-start parameters
    prep = trainer.prepare_block(batch, trainer.forward(trainer.params, batch))
    t_star = prep["t_star"][:, 0]
    dq = prep["dq_targets"][:, 0]
    intr = prep["intrinsics"][:, 0]
    r_t = prep["proxy"][0]
    r_ind = prep["r_individual"][:, 0]
    assert np.array_equal(prep["proxy"], proxy_reward(batch["rewards"], prep["intrinsics"], cfg.lam))
    print(f"\nepisode length {episode.length}, subgoal timesteps {t_star}")

    print("\n  t  r_ex    D_Q(agent0)  r_int(agent0)  R_t      r_0       r_1")
    for t in range(episode.length):
        print(f"  {t:2d}  {episode.rewards[t]:+5.1f}  {dq[0, t]:>10.4f}  "
              f"{intr[0, t]:>12.4f}  {r_t[t]:+.4f}  {r_ind[0, t]:+.4f}  {r_ind[1, t]:+.4f}")

    w = softmax_credit(prep["q_max_snapshot"][:, 0, 0])
    print(f"\ncredit weights at t=0: {w} (positive, sum={w.sum():.1f})")
    print("intrinsic reward is exactly 0 at each agent's subgoal step:")
    for i in range(episode.n_agents):
        print(f"  agent {i}: r_int[t*={t_star[i]}] = {intr[i, t_star[i]]}")


if __name__ == "__main__":
    main()
