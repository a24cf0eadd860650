"""How subgoals are mined from replayed episodes.

Collects a few epsilon-greedy episodes, trains briefly, and shows the
per-timestep scores alpha*max_u Q_i + (1-alpha)*Q_tot/N together with the
subgoal timestep the trainer selects for each agent, across the alpha
sweep the ablations use.

Run:  python3 demos/03_subgoal_selection.py
"""

import numpy as np

from goalmix.config import TrainConfig
from goalmix.env import SkirmishEnv, preset
from goalmix.oracles import brute_force_subgoal
from goalmix.subgoals import subgoal_scores
from goalmix.training import Trainer, stack_episodes


def main():
    cfg = TrainConfig(seed=5, eval_episodes=2).validate()
    trainer = Trainer(cfg, lambda: SkirmishEnv(preset("skirmish-2v2")),
                      rng=np.random.default_rng(5))
    for _ in range(40):
        trainer.collect_episode()
    for _ in range(10):  # a little training so the Q surfaces have structure
        trainer.train_block()

    episode = trainer.buffer.episodes()[-1]
    batch = stack_episodes([episode])  # a batch of M=1
    print(f"episode uid={episode.uid} length={episode.length} "
          f"return={episode.rewards.sum():+.1f}")

    # the score inputs at block start: masked max local Q and the mixed Q
    # of the taken actions
    n = episode.n_agents
    q_seq = trainer.qnet.unroll(trainer.params.agent, batch["obs"])  # (N, 1, T, U)
    q_max = np.max(np.where(batch["avail"], q_seq, -np.inf), axis=-1)
    q_taken = np.take_along_axis(q_seq, batch["actions"][..., None], axis=-1)[..., 0]
    q_tot = trainer.mixer.forward(trainer.params.mixer, q_taken[:, 0].T, batch["states"][0])

    for alpha in (0.0, 0.5, 1.0):
        scores = subgoal_scores(q_max, q_tot[None], batch["valid"], alpha)
        trainer.cfg = cfg.replace(alpha=alpha)
        t_star = trainer.prepare_block(batch)["t_star"][:, 0]
        oracle = brute_force_subgoal(trainer.params.agent, trainer.params.mixer, episode, alpha)
        assert np.array_equal(t_star, oracle)
        print(f"\nalpha = {alpha}")
        for i in range(n):
            curve = " ".join(f"{scores[i, 0, t]:+.2f}" for t in range(episode.length))
            print(f"  agent {i}: t* = {t_star[i]:2d}   scores: {curve}")
    print("\nalpha=0 shares one subgoal timestep across agents; alpha=1 lets each")
    print("agent pick its own greedy observation (verified against the")
    print("exhaustive-scan oracle above).")


if __name__ == "__main__":
    main()
