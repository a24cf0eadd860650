"""Pinned SHA-256 digests of seeded training runs.

The digests were recorded from the trainer as it was before parameters
were packed into one float64 vector per role, when clipping, RMSProp, the
finite checks and the target sync still ran array by array. Each covers
every parameter array of ``named_all()`` (online and target) after every
block, and every block's ``BlockReport``, so a digest that moves means a
parameter or a loss changed in some bit. Every config but criterion 6's
own runs past at least one target sync.

``no_repr`` (lam_d = 0) keeps the digest it was recorded with as the
``disable_repr`` switch, which λ_d = 0 replaced. The QMIX reduction has
built no repr nets since then, so its construction draws fewer numbers:
``qmix`` was recorded anew, and ``qmix_same_stream`` pins that nothing else
moved. It was recorded on the trainer that still built the repr nets,
skipping their arrays, and is checked after drawing their init into a
throwaway.
"""

import dataclasses

import numpy as np
import pytest

from goalmix.config import TrainConfig
from goalmix.oracles import TabularEnv, coordination_chain
from goalmix.rewards import ReprNet
from goalmix.training import Trainer
from tests.conftest import make_trainer
from tests.test_rollout_digests import Digest

BLOCKS = 8
SYNC = dict(target_interval=3)

SKIRMISH_CONFIGS = {
    "default": dict(**SYNC),
    "share_params": dict(share_params=True, **SYNC),
    "no_repr": dict(lam_d=0.0, **SYNC),
    "qmix": dict(lam=0.0, lam_i=0.0, lam_e=0.0, lam_d=0.0, **SYNC),
    "correction_over": dict(correction="over", **SYNC),
}


def chain_trainer(seed, **cfg_kw):
    """A trainer on criterion 6's tabular coordination chain."""
    cfg = TrainConfig(seed=seed, hidden_dim=32, eps_anneal_steps=6000, **cfg_kw).validate()
    game = coordination_chain()
    return Trainer(cfg, lambda: TabularEnv(game, episode_limit=10),
                   rng=np.random.default_rng(seed))


def training_digest(trainer, blocks=BLOCKS):
    trainer.collect_episode()
    d = Digest()
    for _ in range(blocks):
        d.value(dataclasses.asdict(trainer.train_block()))
        for name, arr in trainer.params.named_all():
            d.value(name)
            d.array(arr)
    return d.hexdigest()


def synced(trainer):
    return trainer.episodes_collected > trainer.cfg.target_interval


PARAM_DIGESTS = {
    "default":
        "2e4cf35c24df7d3279b40e34364fd23a5e3548ab051aaf5fc4128dc9176a3be9",
    "share_params":
        "39eca3475917c875b3e7aeb2dd8606555299fcd240571304357f29b32b38c058",
    "no_repr":
        "43ecc3e1bc8e04ab31010a5fc4388d28f71bafe1bd64176ccb0b2fb76c664f55",
    "qmix":
        "bcb052fb84a601584ce7a0795ae52112451deb1d22821986e38b862fbddca7f1",
    "qmix_same_stream":
        "0f0310a25d1cfdb952365127cb07e3ada75f660afe428a20e0d2c2b628398165",
    "correction_over":
        "15acbb7b40811350f85906cd50b728ebad7c25cd23c4916b12221cd7c0389ec4",
    "chain":
        "d813c77f76a8353bb2e00775a07eda910d3411c38edf8b3aee32f3007ea2e2a4",
    "chain_sync":
        "bf338e5ce9f1195faa83c418cc8a0cb465df45684af775bc7c79360e9c4d1e1a",
}


@pytest.mark.parametrize("name", sorted(SKIRMISH_CONFIGS))
def test_skirmish_training_is_pinned(name):
    trainer = make_trainer(seed=4, **SKIRMISH_CONFIGS[name])
    assert training_digest(trainer) == PARAM_DIGESTS[name]
    assert synced(trainer)


def test_qmix_training_on_the_old_stream_is_pinned():
    trainer = make_trainer(seed=4, **SKIRMISH_CONFIGS["qmix"])
    assert trainer.params.repr == {}
    # the repr init the trainer drew when the QMIX reduction still built them
    net = ReprNet(trainer.env.obs_dim, trainer.env.n_actions, trainer.cfg.repr_hidden_dim)
    for _ in range(trainer.n_agents):
        net.init_params(trainer.rng)
    assert training_digest(trainer) == PARAM_DIGESTS["qmix_same_stream"]
    assert synced(trainer)


def test_chain_training_is_pinned():
    # criterion 6's config as it runs, before its first sync
    trainer = chain_trainer(seed=0)
    assert training_digest(trainer) == PARAM_DIGESTS["chain"]


def test_chain_training_across_syncs_is_pinned():
    trainer = chain_trainer(seed=5, target_interval=2)
    assert training_digest(trainer, blocks=3 * BLOCKS) == PARAM_DIGESTS["chain_sync"]
    assert trainer.episodes_collected > 4 * trainer.cfg.target_interval
