"""End-to-end sanity on the exactly solvable coordination chain: the full
trainer against the value-iteration optimum.

Run:  python3 demos/06_tabular_sanity.py
"""

import numpy as np

from goalmix.agents import masked_argmax
from goalmix.config import TrainConfig
from goalmix.oracles import (
    TabularEnv,
    coordination_chain,
    optimal_joint_actions,
    value_iteration,
)
from goalmix.training import Trainer


def main():
    game = coordination_chain()
    q_star = value_iteration(game, gamma=0.99)
    optimal = optimal_joint_actions(game, gamma=0.99)
    print("exact joint Q (state 0):")
    print(np.round(q_star[0], 2))
    print("optimal joint actions per state:", optimal)

    cfg = TrainConfig(seed=1, hidden_dim=32, eps_anneal_steps=6000,
                      max_env_steps=14_000, eval_interval=10**9).validate()
    trainer = Trainer(cfg, lambda: TabularEnv(game, episode_limit=10),
                      rng=np.random.default_rng(cfg.seed))
    trainer.collect_episode()
    while trainer.env_steps < cfg.max_env_steps:
        trainer.train_block()

    env = TabularEnv(game, episode_limit=10)
    obs, _ = env.reset(np.random.default_rng(0))
    hidden = trainer.qnet.initial_hidden(2, 1)  # (agents, batch, hidden)
    print("\ngreedy rollout of the trained decentralised policy:")
    while True:
        s = env.s
        # every agent's net in one call on the slot-stacked parameters
        q, hidden = trainer.qnet.step(trainer.params.agent, obs[:, None], hidden)
        acts = [masked_argmax(q[i, 0], env.avail_actions()[i]) for i in range(2)]
        mark = "optimal" if tuple(acts) in optimal[s] else "SUBOPTIMAL"
        result = env.step(acts)
        print(f"  state {s} -> joint action {tuple(acts)} [{mark}], reward {result.reward:+.2f}")
        obs = result.obs
        if result.done:
            break


if __name__ == "__main__":
    main()
