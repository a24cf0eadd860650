"""A plain monotonic-mixing TD step, written independently of the trainer.

Used as the reference for the reduction property: with every subgoal
weight at zero, one trainer block must reproduce this step bitwise on
the same rng stream. It shares only the numeric kernels (net forwards,
autodiff, optimiser) with the trainer; the loss assembly below is its
own code and never touches subgoals, intrinsic rewards or
representation nets.
"""

import numpy as np

from goalmix.autodiff import moveaxis, take_along_last
from goalmix.nn import ParamSet, as_tensors, clip_grads_global, gradient


def reference_qmix_block(qnet, mixer, params, opt, buffer, cfg, rng):
    """Sample M episodes, one TD step on utility nets + mixer (in place)."""
    episodes = buffer.sample(cfg.batch_size, rng)
    obs = np.stack([e.obs for e in episodes], axis=1)          # (N, M, T, D)
    actions = np.stack([e.actions for e in episodes], axis=1)
    avail = np.stack([e.avail for e in episodes], axis=1)
    states = np.stack([e.states for e in episodes])            # (M, T, S)
    rewards = np.stack([e.rewards for e in episodes])
    dones = np.stack([e.dones for e in episodes]).astype(np.float64)
    valid = np.stack([e.valid for e in episodes]).astype(np.float64)
    n, m, t_len, _ = obs.shape

    agent_t = as_tensors(params.agent)
    mixer_t = as_tensors(params.mixer)
    q_online = qnet.unroll(agent_t, obs)                        # (N, M, T, U)

    # bootstrap under the target nets
    tq = qnet.unroll(params.target_agent, obs)
    tq_max = np.max(np.where(avail, tq, -np.inf), axis=-1)
    tq_next = np.zeros_like(tq_max)
    tq_next[:, :, :-1] = tq_max[:, :, 1:]
    states_next = np.zeros_like(states)
    states_next[:, :-1] = states[:, 1:]
    tot_next = mixer.forward(
        params.target_mixer,
        np.moveaxis(tq_next, 0, -1).reshape(m * t_len, n),
        states_next.reshape(m * t_len, -1),
    ).reshape(m, t_len)
    y = rewards + cfg.gamma * (1.0 - dones) * tot_next

    q_taken = take_along_last(q_online, actions)                # (N, M, T)
    q_tot = mixer.forward(
        mixer_t,
        moveaxis(q_taken, 0, -1).reshape(m * t_len, n),
        states.reshape(m * t_len, -1),
    ).reshape(m, t_len)
    delta = q_tot - y
    w_ep = valid / valid.sum(axis=1)[:, None]
    loss = (delta.square() * w_ep).sum()

    grads = gradient(loss, ParamSet(agent=agent_t, mixer=mixer_t))
    grads = clip_grads_global(dict(grads.named_online()), cfg.grad_clip_norm)
    named = [(name, arr) for name, arr in params.named_online()
             if not name.startswith("repr.")]
    opt.step(named, grads)
    return float(loss.data)
