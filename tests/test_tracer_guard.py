"""The benchmark tracer still finds every entry point it wraps.

`perfbench/tracing.py` patches gridtrade functions and methods by name.
Renaming or removing one of them breaks the benchmark's traced run; this
test makes that a tier-1 failure as well.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gridtrade import env as env_mod
from gridtrade.env import Action, EnvConfig, TradingEnv

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_and_undo_restores_everything(tracing):
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        patched = list(patches._undo)
        env_names = {attr for owner, attr, _ in patched if owner is env_mod}
        for owner, attr, old in patched:
            assert current(owner, attr) is not old, f"{owner.__name__}.{attr} not wrapped"

        env = TradingEnv(EnvConfig())
        env.reset(seed=3)
        env.step([Action(0.5, 0.5, 1.0), Action(-0.5, 0.5, 1.0)] * 2)
        labels = tracer.summary()["labels"]
    finally:
        patches.undo()

    for owner, attr, old in patched:
        assert current(owner, attr) is old, f"{owner.__name__}.{attr} not restored"
    assert {
        "step", "reset", "build_observation", "decode_action", "compute_market_factor",
        "rng_stream", "sample_realization", "apply_pv_disruption", "settle_and_balance",
        "p2p_profit", "clear_jpq", "clear_greedy", "clear_mrda", "clear_vvda",
    } <= env_names
    for label in ("env.reset", "env.step", "env.build_observation", "env.decode_action",
                  "env.compute_market_factor", "microgrid.settle_and_balance"):
        assert labels[label]["calls"] >= 1, label


def test_wrapped_names_are_still_called(tracing, tmp_path):
    # a refactor that keeps a wrapped name but stops calling it leaves its span empty
    from gridtrade import runner
    from gridtrade.policies import ScriptedPolicy
    from gridtrade.reporting import TrajectoryWriter

    # `gridtrade.marl` re-exports the `train` function under the submodule's name
    train_mod = importlib.import_module("gridtrade.marl.train")
    hyper = train_mod.Hyperparams(episodes=1, lstm_hidden=4, actor_hidden=(8, 8),
                                  critic_hidden=(8, 8), epochs=1)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        with TrajectoryWriter(tmp_path / "trajectory.jsonl") as sink:
            runner.run_episodes(EnvConfig(), ScriptedPolicy("random"), 1, 3, on_step=sink)
        train_mod.train(EnvConfig(), hyper, seed=3)
        labels = tracer.summary()["labels"]
    finally:
        patches.undo()

    for label in ("policies.act", "policies.context", "env.step_record", "marl.episode_seed",
                  "marl.episode_metrics", "marl.rollout.distribution", "marl.rollout.value",
                  "marl.rollout.sample", "marl.build_nets", "marl.update", "marl.forward_seq",
                  "marl.critic_forward", "marl.backward", "marl.optimizer_step",
                  "scenario.rng_stream", "reporting.trajectory_write"):
        assert labels.get(label, {}).get("calls", 0) >= 1, label


def test_cli_wrapped_names_are_still_called(tracing, tmp_path):
    # the CLI-level spans: a write moved behind a new function would leave them empty
    from gridtrade.cli import main

    cfg = tmp_path / "run.yaml"
    cfg.write_text("learner: {lstm_hidden: 4, actor_hidden: [8, 8], critic_hidden: [8, 8], "
                   "epochs: 1}\n")
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert main(["simulate", "--config", str(cfg), "--episodes", "1",
                     "--out", str(tmp_path / "sim")]) == 0
        assert main(["train", "--config", str(cfg), "--episodes", "1",
                     "--out", str(tmp_path / "train")]) == 0
        labels = tracer.summary()["labels"]
    finally:
        patches.undo()

    for label in ("cli.build_parser", "config.load_config", "reporting.write_metrics_csv",
                  "reporting.save_checkpoint", "reporting.write_manifest"):
        assert labels.get(label, {}).get("calls", 0) >= 1, label
