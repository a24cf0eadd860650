"""The public names and the demos stay importable; README matches the CLI."""

import argparse
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import goalmix
from goalmix.cli import ABLATION_VARIANTS, build_parser
from goalmix.config import TrainConfig
from goalmix.oracles import TabularEnv, coordination_chain, optimal_joint_actions
from goalmix.training import Trainer

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("name", goalmix.__all__)
def test_public_name_resolves(name):
    assert getattr(goalmix, name) is not None


def test_demos_found():
    assert len(DEMOS) >= 6


def load_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports only; main() is guarded
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_cleanly(path):
    assert callable(load_demo(path).main)


# demos 01-04 take a few seconds together; 05 and 06 train for tens of
# seconds each and stay import-only
@pytest.mark.parametrize("path", DEMOS[:4], ids=lambda p: p.name)
def test_demo_runs_end_to_end(path, capsys):
    load_demo(path).main()
    assert capsys.readouterr().out.strip()


def test_demo_06_greedy_rollout_runs(capsys):
    """Demo 06's training is too long for tier-1; its greedy rollout runs
    here on an untrained chain trainer."""
    game = coordination_chain()
    trainer = Trainer(TrainConfig(seed=0, hidden_dim=32).validate(),
                      lambda: TabularEnv(game, episode_limit=10), rng=np.random.default_rng(0))
    demo = load_demo(ROOT / "demos" / "06_tabular_sanity.py")
    visited = demo.greedy_rollout(trainer, game, optimal_joint_actions(game, 0.99))
    assert len(visited) == 10
    assert all(len(acts) == 2 and 0 <= min(acts) and max(acts) < game.n_actions
               for _, acts in visited)
    assert len(capsys.readouterr().out.strip().splitlines()) == 10


def test_readme_ablation_variants_are_the_cli_variants():
    section = README.split("Ablation variants:")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.M)
    listed = {name: {k: json.loads(v) for k, v in re.findall(r"`(\w+)=([^`]+)`", setting)}
              for name, setting in rows}
    assert list(listed) == list(ABLATION_VARIANTS)
    assert listed == ABLATION_VARIANTS


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_readme_synopsis_flags_are_parser_flags(command):
    """The README synopsis lists every long flag of each command but --help,
    and no other."""
    synopsis = README.split("## CLI")[1].split("```bash\n")[1].split("```")[0]
    usage = next(u for u in re.split(r"^goalmix ", synopsis, flags=re.M)
                 if u.startswith(command + " "))
    flags = set(re.findall(r"--[a-z][a-z-]*", usage))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser_flags = {f for f in sub.choices[command]._option_string_actions
                    if f.startswith("--")} - {"--help"}
    assert flags and flags == parser_flags
