"""The traced benchmark (perfbench/tracing.py) patches package functions by
name; a rename must fail here, not only in traced benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

from goalmix.autodiff import Tensor
from tests.conftest import make_trainer

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for name, owner, attr in tracing.TARGETS:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr} ({name})"


def test_install_uninstall_round_trips(tracing):
    originals = [owner.__dict__[attr] for _, owner, attr in tracing.TARGETS]
    init = Tensor.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original for (_, owner, attr), original
                   in zip(tracing.TARGETS, originals))
        trainer = make_trainer(seed=0, batch_size=4)
        trainer.collect_episode()
        tracer.op = 0
        trainer.train_block()
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for (_, owner, attr), original
               in zip(tracing.TARGETS, originals))
    assert Tensor.__init__ is init
    calls = {name: n for name, (_, n) in tracer.layer_table(1).items()}
    assert calls["training.train_block"] == 1
    assert calls["mixer.forward"] == 2 and calls["rewards.repr_forward"] == 1
    assert calls["agents.unroll_graph"] == 1 and calls["agents.unroll_np"] == 1
    # the flat-vector step still runs through the names the tracer patches
    assert calls["nn.rmsprop_step"] == 1 and calls["nn.clip_grads_global"] == 1
    assert tracer.nodes > 0
