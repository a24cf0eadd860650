"""One goalmix benchmark workload, measured in one fresh process.

run.py starts this file once per measured run; an untraced run starts it
again, between its chunks of ops, for more set-up samples. It prints one
JSON object as its last line. The workload drives
only the package's public calls: ``make_trainer``/``Trainer``,
``Trainer.train_block``, ``Trainer.evaluate`` and
``save_checkpoint``/``load_checkpoint``.

    python3 perfbench/workload.py --workload train-chain --seed 0 --seconds 10
"""

import time

PROCESS_START = time.perf_counter()  # set-up time counts from here, before numpy and goalmix load

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one BLAS thread; must be set before numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402

import goalmix  # noqa: E402
from goalmix import nn  # noqa: E402
from goalmix.cli import make_trainer, resolve_env_config  # noqa: E402
from goalmix.config import TrainConfig  # noqa: E402
from goalmix.env import EnvConfig, SkirmishEnv, preset  # noqa: E402
from goalmix.oracles import TabularEnv, coordination_chain  # noqa: E402
from goalmix.training import Trainer  # noqa: E402

WORKLOADS = ("train-skirmish-2v2", "train-chain", "eval-skirmish-3v3")

# Greedy evaluation takes turns among EVAL_POLICIES fresh policies, one
# checkpoint each: how long an untrained policy's episodes run, and how much
# fighting they hold, depends on its seed, and a mix keeps one policy from
# setting the figures of a whole run. Each policy's trainer RNG is rewound
# every EVAL_CYCLE episodes, so the episode sequence repeats and the
# reference covers every op.
EVAL_POLICIES = 16
EVAL_CYCLE = 4 * EVAL_POLICIES
EVAL_EPISODE_LIMIT = preset("skirmish-3v3").episode_limit
# Train ops: the reference holds the losses of the first TRAIN_CHECKED blocks.
TRAIN_CHECKED = 3
LOSS_RTOL = 1e-9
MIN_OPS = 100  # so op_ms_p90 has at least ten samples above it
TRACE_CHUNK_S = 1.0
# Fresh set-up-only processes an untraced run starts between its chunks;
# with the measured process's own set-up they give 1 + SETUP_PROBES samples.
SETUP_PROBES = 10


class TrainLoop:
    """One op is one ``Trainer.train_block`` (sample, losses, step, collect)."""

    def __init__(self, trainer):
        self.trainer = trainer

    def op(self):
        before = self.trainer.env_steps
        report = self.trainer.train_block()
        losses = [report.loss_total, report.loss_td, report.loss_individual,
                  report.loss_correction, report.loss_repr, report.mean_proxy_reward]
        return self.trainer.env_steps - before, losses


class EvalLoop:
    """One op is one greedy episode, ``Trainer.evaluate(1)``, of each policy in turn."""

    def __init__(self, trainers):
        self.trainers = trainers
        self.rng_states = [t.rng.bit_generator.state for t in trainers]
        self.done = 0

    def op(self):
        k = self.done % len(self.trainers)
        trainer = self.trainers[k]
        if self.done % EVAL_CYCLE < len(self.trainers):
            trainer.rng.bit_generator.state = self.rng_states[k]
        won = trainer.evaluate(1)
        self.done += 1
        length = trainer.eval_env.t
        return length, [length, won == 1.0]


def eval_trainer(cfg, path):
    """A trainer holding ``cfg``'s fresh parameters after a checkpoint round trip,
    as ``goalmix eval`` loads them."""
    source = make_trainer(cfg)
    nn.save_checkpoint(path, source.params, meta={
        "config": cfg.to_dict(), "env_config": resolve_env_config(cfg).to_dict()})
    try:
        params, meta = nn.load_checkpoint(path)
    finally:
        path.unlink()
    env_cfg = EnvConfig.from_dict(meta["env_config"])
    trainer = Trainer(TrainConfig(**meta["config"]).validate(),
                      lambda: SkirmishEnv(env_cfg), rng=np.random.default_rng(cfg.seed))
    trainer.params = params
    return trainer


def build(workload, seed):
    """Everything up to the first op: config, trainer or checkpoint, first episode."""
    if workload == "train-skirmish-2v2":
        trainer = make_trainer(TrainConfig(seed=seed).validate())
        trainer.collect_episode()
        return TrainLoop(trainer)
    if workload == "train-chain":
        cfg = TrainConfig(seed=seed, hidden_dim=32, eps_anneal_steps=6000).validate()
        game = coordination_chain()
        trainer = Trainer(cfg, lambda: TabularEnv(game, episode_limit=10),
                          rng=np.random.default_rng(seed))
        trainer.collect_episode()
        return TrainLoop(trainer)
    if workload == "eval-skirmish-3v3":
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"eval-checkpoint-{os.getpid()}.npz"
        return EvalLoop([
            eval_trainer(TrainConfig(seed=EVAL_POLICIES * seed + k, env="skirmish-3v3").validate(),
                         path)
            for k in range(EVAL_POLICIES)
        ])
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def run_ops(loop, seconds, tracer=None, probe=None):
    """Run ops for ``seconds`` of op time, and until each kind has MIN_OPS ops.

    Without a tracer there is one kind, untraced, run in SETUP_PROBES + 1
    chunks; between two chunks ``probe()`` times the set-up of a fresh
    process, so set-up is sampled across the whole run. With a tracer,
    untraced and traced chunks of TRACE_CHUNK_S alternate, half the time
    each, so both kinds see the same drift in the speed of the machine and
    their difference is the tracing overhead. An op that raises is recorded
    and the run goes on. Returns the kinds, the ops' outputs, their errors
    and the probes' set-up times.
    """
    kinds = [{"op_s": [], "steps": []} for _ in range(1 if tracer is None else 2)]
    outputs, errors, setups = [], {}, []
    clock = time.perf_counter
    share = seconds / len(kinds)
    chunk_s = TRACE_CHUNK_S if tracer is not None else seconds / (SETUP_PROBES + 1)

    def done(kind):
        return sum(kind["op_s"]) >= share and len(kind["op_s"]) >= MIN_OPS

    current = 0
    while True:
        traced = current == 1
        if traced:
            tracer.install()
        kind = kinds[current]
        chunk_op_s = 0.0
        while True:
            index = len(outputs)
            if traced:
                tracer.op = index
                nodes_before = tracer.nodes
            t0 = clock()
            try:
                n, out = loop.op()
            except Exception:  # counted as a failed op
                n, out = 0, None
                errors[index] = traceback.format_exc(limit=3)
            op_s = clock() - t0
            chunk_op_s += op_s
            kind["op_s"].append(op_s)
            kind["steps"].append(n)
            outputs.append(out)
            if traced:
                tracer.node_counts.append(tracer.nodes - nodes_before)
            if chunk_op_s >= chunk_s or done(kind):
                break
        if traced:
            tracer.uninstall()
        if all(done(k) for k in kinds):
            return kinds, outputs, errors, setups
        if probe is not None and len(setups) < SETUP_PROBES:
            setups.append(probe())
        current = (current + 1) % len(kinds)


def probe_setup(workload, seed):
    """Set-up time of a fresh process that builds ``workload`` and stops."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def check(workload, outputs, reference):
    """Indices of ops whose output is wrong. ``reference`` is this seed's entry or None."""
    bad = []
    for i, out in enumerate(outputs):
        if out is None:
            bad.append(i)
        elif workload.startswith("train-"):
            ok = all(math.isfinite(x) for x in out)
            if reference is not None and i < len(reference):
                ok = ok and all(math.isclose(x, r, rel_tol=LOSS_RTOL, abs_tol=0.0)
                                for x, r in zip(out[:2], reference[i]))
            if not ok:
                bad.append(i)
        elif reference is not None:
            if out != reference[i % len(reference)]:
                bad.append(i)
        elif not (1 <= out[0] <= EVAL_EPISODE_LIMIT and isinstance(out[1], bool)):
            bad.append(i)
    return bad


def reference_outputs(workload, seed):
    """The outputs the check compares against, from the code as it is now."""
    loop = build(workload, seed)
    n = TRAIN_CHECKED if workload.startswith("train-") else EVAL_CYCLE
    outs = [loop.op()[1] for _ in range(n)]
    return [o[:2] for o in outs] if workload.startswith("train-") else outs


def summarize(kind):
    ms = sorted(1e3 * s for s in kind["op_s"])
    q = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "env_steps_per_s": sum(kind["steps"]) / sum(kind["op_s"]),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": q[8],
        "ops": len(ms),
    }


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "goalmix": goalmix.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report its time")
    p.add_argument("--spans", help="traced run: write every span to this CSV file")
    args = p.parse_args(argv)

    if not Path(goalmix.__file__).resolve().is_relative_to(SRC_DIR):
        sys.exit(f"goalmix was imported from {goalmix.__file__}, not from {SRC_DIR}")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    loop = build(args.workload, args.seed)
    setup_s = time.perf_counter() - PROCESS_START
    result = {"setup_s": setup_s}
    if not args.setup_only:
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)["workloads"][args.workload].get(str(args.seed))
        if tracer is not None:
            tracer.uninstall()
        probe = None if tracer is not None else lambda: probe_setup(args.workload, args.seed)
        kinds, outputs, errors, setups = run_ops(loop, args.seconds, tracer, probe)
        result["setup_samples"] = [setup_s] + setups
        result.update(summarize(kinds[0]))
        if tracer is not None:
            traced = summarize(kinds[1])
            result["layers"] = tracer.layer_table(traced["ops"])
            result["nodes_per_op"] = statistics.median(tracer.node_counts)
            result["traced_op_ms_p50"] = traced["op_ms_p50"]
            result["traced_ops"] = traced["ops"]
            if args.spans:
                tracer.write_spans(args.spans)
        result["attempted"] = len(outputs)
        result["failed_ops"] = check(args.workload, outputs, reference)
        result["errors"] = {str(k): v for k, v in errors.items()}
        result["reference"] = reference is not None
        result["op_ms"] = [[round(1e3 * s, 4) for s in kind["op_s"]] for kind in kinds]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
