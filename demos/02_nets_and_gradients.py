"""The differentiable core: recurrent utility nets, the monotonic mixer,
and reverse-mode gradients cross-checked against finite differences.

Run:  python3 demos/02_nets_and_gradients.py
"""

import numpy as np

from goalmix.agents import RecurrentQNet
from goalmix.mixer import MonotonicMixer
from goalmix.nn import RMSProp, as_tensors, flatten, gradient
from goalmix.oracles import finite_diff_grad
from goalmix.training import loss_value


def main():
    rng = np.random.default_rng(0)
    qnet = RecurrentQNet(obs_dim=6, n_actions=4, hidden_dim=16)
    params = qnet.init_params(rng)
    obs = rng.normal(size=(3, 8, 6))  # batch of 3 sequences, 8 steps

    q_seq = qnet.unroll(params, obs)
    print("Q values over a batch of sequences:", q_seq.shape)

    # the same forward runs in graph mode when parameters are wrapped
    target = rng.normal(size=q_seq.shape)

    def loss_of(p):
        delta = qnet.unroll(p, obs) - target
        return (delta * delta).sum() * (1.0 / target.size)

    tensors = as_tensors(params)
    grads = gradient(loss_of(tensors), tensors)
    fd = finite_diff_grad(lambda p: loss_value(loss_of(p)), params, step=1e-5,
                          coords={"gru.hz.w": range(10), "out.w": range(10)})
    for name in ("gru.hz.w", "out.w"):
        a = grads[name].reshape(-1)[:10]
        f = fd[name].reshape(-1)[:10]
        rel = np.abs(a - f) / np.maximum(np.abs(f), 1e-8)
        print(f"grad check {name:10s}: max rel err vs central differences = {rel.max():.2e}")

    # one optimiser step: RMSProp updates one flat vector in place, here
    # every array of the net end to end, named as one
    flat, grad = flatten([params]), flatten([grads])
    RMSProp(lr=5e-4).step(flat, grad, [("qnet", 0, flat.size)])
    stops = np.cumsum([v.size for v in params.values()])
    stepped = {k: flat[stop - v.size:stop].reshape(v.shape)
               for (k, v), stop in zip(params.items(), stops)}
    before, after = loss_value(loss_of(params)), loss_value(loss_of(stepped))
    print(f"RMSProp step: loss {before:.5f} -> {after:.5f}")

    # the mixer is monotone in every local Q by construction
    mixer = MonotonicMixer(n_agents=3, state_dim=5, embed_dim=8)
    mparams = mixer.init_params(rng)
    q = rng.normal(size=(1, 3))
    s = rng.normal(size=(1, 5))
    base = mixer.forward(mparams, q.T, s)[0]  # agents on the first axis
    bumped = mixer.forward(mparams, (q + np.array([[0.0, 1.0, 0.0]])).T, s)[0]
    print(f"mixer monotonicity: Q_tot {base:+.4f} -> {bumped:+.4f} after raising one input")


if __name__ == "__main__":
    main()
