"""Span tracer for the benchmark's traced run.

Wrappers are installed from the benchmark's own code around the calls into
each gridtrade module, at the names the callers look up: `env` imports
`clear_jpq`, `rng_stream`, `settle_and_balance` and friends by name, the
CLI imports the reporting writers and `load_config`, and `runner` imports
`step_record` and `episode_metrics`. Patching only the defining module would
miss those calls. `gridtrade.marl` re-exports the `train` function under the
submodule's name, so the submodule is reached through `importlib`.

Spans (label, parent, start, end) are kept in flat arrays while the run
lasts and written out when it ends. Self time is span time minus the time of
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "bench.pass"
MECHANISMS = ("jpq", "greedy", "mrda", "vvda")
BOOK_SIZES = (64, 512, 2048)


def size_bucket(n_quotes: int) -> int:
    """Smallest benchmark book size that holds `n_quotes` (env books land in 64)."""
    for size in BOOK_SIZES:
        if n_quotes <= size:
            return size
    return BOOK_SIZES[-1]


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def label_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.labels)
            self.labels.append(name)
        return self._ids[name]

    def open(self, lid: int) -> int:
        idx = len(self.label)
        self.label.append(lid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        # open/close inlined: the wrapper's own cost lands in the parent span
        lid = self.label_id(name)
        label, parent, start, end, stack = self.label, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            label.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per label: calls, inclusive seconds and self seconds; plus coverage
        of the root spans by their direct children."""
        label = np.frombuffer(self.label, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        nl = len(self.labels)
        stats = {
            name: {"calls": int(c), "s": float(t), "self_s": float(s)}
            for name, c, t, s in zip(
                self.labels,
                np.bincount(label, minlength=nl),
                np.bincount(label, weights=dur, minlength=nl),
                np.bincount(label, weights=own, minlength=nl),
            )
        }
        roots = label == self._ids.get(ROOT, -1)
        under_root = nested & roots[np.maximum(parent, 0)]
        return {
            "labels": stats,
            "root_s": float(dur[roots].sum()),
            "covered_s": float(dur[under_root].sum()),
            "spans": int(len(dur)),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str) -> None:
        self.set(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer) -> Patches:
    """Wrap the public entry points of every gridtrade layer."""
    mod = {
        name: importlib.import_module(f"gridtrade.{name}")
        for name in (
            "cli", "env", "market", "policies", "reporting", "runner",
            "marl.autodiff", "marl.nets", "marl.ppo", "marl.train",
        )
    }
    env, market, train = mod["env"], mod["market"], mod["marl.train"]
    nets, autodiff, ppo = mod["marl.nets"], mod["marl.autodiff"], mod["marl.ppo"]
    p = Patches()

    for owner, attrs in (
        (env, {
            "step": "env.step",
            "reset": "env.reset",
            "build_observation": "env.build_observation",
            "decode_action": "env.decode_action",
            "rng_stream": "scenario.rng_stream",
            "sample_realization": "scenario.sample_realization",
            "apply_pv_disruption": "scenario.apply_pv_disruption",
            "settle_and_balance": "microgrid.settle_and_balance",
            "p2p_profit": "microgrid.p2p_profit",
        }),
        (mod["runner"], {
            "PolicyContext": "policies.context",
            "episode_seed": "marl.episode_seed",
            "step_record": "env.step_record",
            "episode_metrics": "marl.episode_metrics",
        }),
        (mod["policies"], {"rng_stream": "scenario.rng_stream"}),
        (train, {
            "_update_agents": "marl.update",
            "build_nets": "marl.build_nets",
            "rng_stream": "scenario.rng_stream",
            "episode_seed": "marl.episode_seed",
            "episode_metrics": "marl.episode_metrics",
        }),
        (mod["cli"], {
            "build_parser": "cli.build_parser",
            "load_config": "config.load_config",
            "write_metrics_csv": "reporting.write_metrics_csv",
            "save_checkpoint": "reporting.save_checkpoint",
            "write_manifest": "reporting.write_manifest",
        }),
        (mod["policies"].ScriptedPolicy, {"act": "policies.act"}),
        (market.TradeLedger, {
            "bought_kwh": "market.ledger.bought_sold",
            "sold_kwh": "market.ledger.bought_sold",
        }),
        (mod["reporting"].TrajectoryWriter, {
            "__init__": "reporting.trajectory_write",
            "__call__": "reporting.trajectory_write",
            "close": "reporting.trajectory_write",
        }),
        (nets.PolicyNet, {
            "distribution": "marl.rollout.distribution",
            "forward_seq": "marl.forward_seq",
        }),
        (nets.CriticNet, {"value": "marl.rollout.value", "forward": "marl.critic_forward"}),
        (nets.DiagGaussian, {"sample": "marl.rollout.sample", "log_prob": "marl.rollout.sample"}),
        (autodiff.Tensor, {"backward": "marl.backward"}),
        (ppo.Adam, {"step": "marl.optimizer_step"}),
        (ppo.Sgd, {"step": "marl.optimizer_step"}),
    ):
        for attr, name in attrs.items():
            p.wrap(tracer, owner, attr, name)

    from_trades = vars(market.TradeLedger)["from_trades"].__func__
    p.set(market.TradeLedger, "from_trades",
          classmethod(tracer.wrap("market.ledger.from_trades", from_trades)))

    counters = tracer.counters
    tensor_init = autodiff.Tensor.__init__

    @functools.wraps(tensor_init)
    def counted_init(self, *args, **kwargs):
        counters["marl.tensors_created"] += 1
        tensor_init(self, *args, **kwargs)

    p.set(autodiff.Tensor, "__init__", counted_init)

    market_factor = tracer.wrap("env.compute_market_factor", env.compute_market_factor)
    regime = {-1: "env.market_factor.surplus", 0: "env.market_factor.balanced",
              1: "env.market_factor.deficit"}

    @functools.wraps(env.compute_market_factor)
    def counted_market_factor(state):
        m = market_factor(state)
        counters[regime[m.value]] += 1
        return m

    p.set(env, "compute_market_factor", counted_market_factor)

    for mech in MECHANISMS:
        traced = _traced_clear(tracer, mech, getattr(market, f"clear_{mech}"))
        p.set(market, f"clear_{mech}", traced)
        p.set(env, f"clear_{mech}", traced)
    return p


def _traced_clear(tracer: Tracer, mech: str, fn):
    """Span named by mechanism and book-size bucket; JPQ also reports its
    iteration and pointer-advance counts through the `stats=` hook."""
    lids = {size: tracer.label_id(f"market.clear_{mech}.{size}") for size in BOOK_SIZES}
    counters = tracer.counters

    if mech == "jpq":
        @functools.wraps(fn)
        def traced(quotes, m, p_e, stats=None):
            stats = {} if stats is None else stats
            idx = tracer.open(lids[size_bucket(len(quotes))])
            try:
                ledger = fn(quotes, m, p_e, stats=stats)
            finally:
                tracer.close(idx)
            counters["market.jpq.iterations"] += stats["iterations"]
            counters["market.jpq.pointer_advances"] += stats["pointer_advances"]
            counters["market.jpq.trades"] += len(ledger.trades)
            counters["market.trades"] += len(ledger.trades)
            return ledger
    else:
        @functools.wraps(fn)
        def traced(quotes, *args, **kwargs):
            idx = tracer.open(lids[size_bucket(len(quotes))])
            try:
                ledger = fn(quotes, *args, **kwargs)
            finally:
                tracer.close(idx)
            counters["market.trades"] += len(ledger.trades)
            return ledger
    return traced


# (metric, unit); every traced run reports all of them, 0 where a layer is idle.
PER_LAYER = (
    [
        ("trace.overhead", "ratio"),
        ("trace.coverage", "%"),
        ("trace.spans", "count"),
        ("env.build_observation.calls", "count"),
        ("env.build_observation.ms", "ms/pass"),
        ("scenario.rng_stream.calls", "count"),
        ("scenario.rng_stream.ms", "ms/pass"),
        ("env.compute_market_factor.calls", "count"),
        ("env.reset.ms", "ms/pass"),
        ("scenario.sample_realization.ms", "ms/pass"),
        ("scenario.apply_pv_disruption.ms", "ms/pass"),
        ("env.decode_action.ms", "ms/pass"),
        ("env.step.ms", "ms/pass"),
        ("env.step.self_ms", "ms/pass"),
        ("microgrid.settle_and_balance.calls", "count"),
        ("microgrid.settle_and_balance.ms", "ms/pass"),
        ("microgrid.p2p_profit.ms", "ms/pass"),
        ("market.ledger.bought_sold.ms", "ms/pass"),
        ("env.market_factor.surplus", "count"),
        ("env.market_factor.balanced", "count"),
        ("env.market_factor.deficit", "count"),
    ]
    + [(f"market.clear_{m}.{s}.ms", "ms/call") for m in MECHANISMS for s in BOOK_SIZES]
    + [
        ("market.ledger.from_trades.ms", "ms/pass"),
        ("market.jpq.iterations", "count"),
        ("market.jpq.pointer_advances", "count"),
        ("market.jpq.trades_per_iteration", "ratio"),
        ("market.trades", "count"),
        ("policies.act.ms", "ms/pass"),
        ("marl.rollout.s_per_episode", "s/episode"),
        ("marl.update.s_per_round", "s/round"),
        ("marl.forward_seq.calls", "count"),
        ("marl.forward_seq.ms", "ms/pass"),
        ("marl.backward.calls", "count"),
        ("marl.backward.ms", "ms/pass"),
        ("marl.optimizer_step.ms", "ms/pass"),
        ("marl.critic_forward.ms", "ms/pass"),
        ("marl.tensors_created", "count/round"),
        ("reporting.trajectory_write.ms", "ms/pass"),
        ("env.step_record.ms", "ms/pass"),
        ("reporting.bytes_written", "bytes"),
        ("reporting.save_checkpoint.ms", "ms/pass"),
        ("reporting.write_metrics_csv.ms", "ms/pass"),
        ("config.load_config.ms", "ms/pass"),
    ]
)


def layer_metrics(summary: dict, counters: dict, passes: int, extra: dict) -> dict:
    """Per-layer values; counts and times are per benchmark pass unless the
    unit says otherwise. `extra` carries the values measured outside spans."""
    stats = summary["labels"]

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return stats.get(name, {}).get(key, 0.0)

    def per_call_ms(name):
        return 1e3 * secs(name) / calls(name) if calls(name) else 0.0

    rounds = calls("marl.update")
    resets = calls("env.reset")
    rollout = sum(secs(f"marl.rollout.{part}") for part in ("distribution", "value", "sample"))
    iterations = counters.get("market.jpq.iterations", 0)
    values = dict(extra)
    for metric, unit in PER_LAYER:
        if metric in values:
            continue
        base = metric.rsplit(".", 1)[0]
        if unit == "ms/call":
            values[metric] = per_call_ms(base)
        elif metric.endswith(".self_ms"):
            values[metric] = 1e3 * secs(base, "self_s") / passes
        elif metric.endswith(".ms"):
            values[metric] = 1e3 * secs(base) / passes
        elif metric.endswith(".calls"):
            values[metric] = calls(base) / passes
        elif unit == "count":
            values[metric] = counters.get(metric, 0) / passes
    values["marl.rollout.s_per_episode"] = rollout / resets if rollout else 0.0
    values["marl.update.s_per_round"] = secs("marl.update") / rounds if rounds else 0.0
    values["marl.tensors_created"] = counters.get("marl.tensors_created", 0) / rounds if rounds else 0.0
    values["market.jpq.trades_per_iteration"] = (
        counters.get("market.jpq.trades", 0) / iterations if iterations else 0.0
    )
    values["trace.spans"] = summary["spans"] / passes
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}
