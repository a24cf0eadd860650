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

    print("\ngreedy rollout of the trained decentralised policy:")
    greedy_rollout(trainer, game, optimal)


def greedy_rollout(trainer, game, optimal):
    """Play one greedy chain episode with the trainer's agents, printing
    each state's joint action; returns the (state, joint action) pairs."""
    env = TabularEnv(game, episode_limit=10)
    obs, _ = env.reset(np.random.default_rng(0))
    # every agent's net in one step on the slot-stacked parameters, from a
    # policy prepared once for the episode (agents, batch of 1)
    policy = trainer.qnet.policy(trainer.params.agent, env.n_agents, 1)
    visited = []
    while True:
        s = env.s
        q = trainer.qnet.step(policy, obs[:, None])
        # every agent's greedy action in one masked argmax over (agents, actions)
        acts = tuple(masked_argmax(q[:, 0], env.avail_actions()))
        mark = "optimal" if acts in optimal[s] else "SUBOPTIMAL"
        result = env.step(list(acts))
        print(f"  state {s} -> joint action {acts} [{mark}], reward {result.reward:+.2f}")
        visited.append((s, acts))
        obs = result.obs
        if result.done:
            return visited


if __name__ == "__main__":
    main()
