"""A plain monotonic-mixing TD step, written independently of the trainer.

Used as the reference for the reduction property: with every subgoal
weight at zero, one trainer block must reproduce this step bitwise on
the same rng stream. It shares only the numeric kernels (net forwards,
autodiff, optimiser) with the trainer; the loss assembly below is its
own code and never touches subgoals, intrinsic rewards or
representation nets, and it packs its own parameter and gradient vectors.
"""

import numpy as np

from goalmix.autodiff import take_along_last
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
    tot_next = mixer.forward(params.target_mixer, tq_next, states_next)
    y = rewards + cfg.gamma * (1.0 - dones) * tot_next

    q_taken = take_along_last(q_online, actions)                # (N, M, T)
    q_tot = mixer.forward(mixer_t, q_taken, states)             # (M, T)
    delta = q_tot - y
    w_ep = valid / valid.sum(axis=1)[:, None]
    loss = (delta.square() * w_ep).sum()

    # its own flat vectors, one named view after another in named_online() order
    grads = dict(gradient(loss, ParamSet(agent=agent_t, mixer=mixer_t)).named_online())
    named = [(name, arr) for name, arr in params.named_online()
             if not name.startswith("repr.")]
    stops = np.cumsum([arr.size for _, arr in named])
    views = [(name, stop - arr.size, stop) for (name, arr), stop in zip(named, stops)]
    flat = np.concatenate([arr.ravel() for _, arr in named])
    grad = np.concatenate([grads[name].ravel() for name, _ in named])
    opt.step(flat, clip_grads_global(grad, cfg.grad_clip_norm, views), views)
    for (_, arr), (_, start, stop) in zip(named, views):
        arr[...] = flat[start:stop].reshape(arr.shape)
    return float(loss.data)
