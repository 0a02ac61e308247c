"""The four benchmark workloads.

Each workload is closed loop in one process: a pass is one fixed unit of
work (a CLI invocation or one sweep over the book mix), the next step or
clear is issued only when the previous one returns, and every pass of a run
repeats the same inputs, so its output digest must repeat exactly.

This module imports neither numpy nor gridtrade at import time: `setup`
does, so that its duration is the user's set-up cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import check_ledger, check_quantities, check_rows_finite, check_step

MAX_PROBLEMS = 20


@dataclass
class PassResult:
    seconds: float                 # timed wall of the pass, check time excluded
    ops: int                       # env steps or book clears
    latencies: list[float]         # seconds per op
    agent_steps: int = 0
    episodes: int = 0
    quotes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0


class StepProbe:
    """Times every simulated hour and checks every env step.

    An hour's latency runs from the return of the previous `reset`/`step` to
    the return of this `step`: the policy acting for every agent, `env.step`
    and, when a trajectory is written, the previous hour's record. A reset
    restarts the clock, so an update between episodes never lands in an
    hour. Checks run after the step returns and their time is excluded from
    the latency and from the pass time.
    """

    def __init__(self, env_mod, balance_residual):
        self._env = env_mod
        self._balance_residual = balance_residual
        self.begin_pass()

    def begin_pass(self) -> None:
        self.latencies: list[float] = []
        self.excluded = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._last = perf_counter()

    def install(self) -> None:
        cls = self._env.TradingEnv
        step, reset = cls.step, cls.reset
        probe, residual = self, self._balance_residual

        def timed_step(env, joint_action):
            state = env.state
            hour = state.hour
            result = step(env, joint_action)
            returned = perf_counter()
            probe.latencies.append(returned - probe._last)
            problems = check_step(state, hour, result, residual)
            probe.attempted += 1
            if problems:
                probe.failed += 1
                probe.problems.extend(problems[: max(0, MAX_PROBLEMS - len(probe.problems))])
            probe._last = perf_counter()
            probe.excluded += probe._last - returned
            return result

        def timed_reset(env, seed):
            obs = reset(env, seed)
            probe._last = perf_counter()
            return obs

        cls.step = timed_step
        cls.reset = timed_reset


def _digest_dir(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


class CliWorkload:
    """A `gridtrade` CLI command run once per pass through `gridtrade.cli.main`."""

    command = ""
    config = ""
    replays = 1  # times each episode is simulated per pass

    def __init__(self, root: Path, seed: int, episodes: int, out: Path):
        self.root, self.seed, self.episodes, self.out = root, seed, episodes, out

    def config_path(self) -> Path:
        return self.root / self.config

    def setup(self) -> None:
        import gridtrade.cli
        from gridtrade import config, env, microgrid

        self.cli = gridtrade.cli
        self.cfg = config.load_config(self.config_path())
        self.n_agents = self.cfg.env.n_agents
        self.profiles = [self.cfg.env.profile_for(i) for i in range(self.n_agents)]
        self.probe = StepProbe(env, microgrid.balance_residual)
        self.probe.install()

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config_path()), "--seed", str(self.seed),
                "--episodes", str(self.episodes), "--out", str(self.run_dir)]

    @property
    def run_dir(self) -> Path:
        return self.out / "cli"

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        probe = self.probe
        probe.begin_pass()
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(self.argv())
        wall = perf_counter() - start
        steps = len(probe.latencies)
        result = PassResult(
            seconds=wall - probe.excluded, ops=steps,
            latencies=probe.latencies, agent_steps=steps * self.n_agents,
            attempted=probe.attempted, failed=probe.failed, problems=probe.problems,
        )
        problems = [f"{self.command} exited with code {code}"] if code != 0 else []
        expected = self.episodes * self.cfg.env.horizon * self.replays
        if steps != expected:
            problems.append(f"{steps} steps simulated, expected {expected}")
        if code == 0:
            problems += self.check_outputs(result)
        result.attempted += 1  # the pass's written outputs count as one operation
        if problems:
            result.failed += 1
            result.problems.extend(problems)
        result.digest, result.bytes_written = _digest_dir(self.run_dir)
        return result

    def check_outputs(self, result: PassResult) -> list[str]:
        return []


class TrainDesk(CliWorkload):
    command = "train"
    config = "configs/reference.yaml"

    def setup(self) -> None:
        super().setup()
        import dataclasses
        import importlib

        train = importlib.import_module("gridtrade.marl.train")
        hyper = dataclasses.replace(self.cfg.learner, episodes=self.episodes)
        self.nets = train.build_nets(self.cfg.env, hyper, self.seed)

    def check_outputs(self, result: PassResult) -> list[str]:
        from gridtrade.reporting import read_metrics_csv

        rows = read_metrics_csv(self.run_dir / "metrics.csv")
        per_row = [check_rows_finite([row], f"metrics.csv episode {k}") for k, row in enumerate(rows)]
        result.episodes = len(rows)
        result.attempted += len(rows)
        result.failed += sum(1 for bad in per_row if bad)
        result.problems.extend(p for bad in per_row for p in bad)
        problems = []
        if len(rows) != self.episodes:
            problems.append(f"{len(rows)} episodes trained, expected {self.episodes}")
        ckpt = json.loads((self.run_dir / "checkpoint.json").read_text())
        for k, agent in enumerate(ckpt["payload"]["agents"]):
            for part in ("actor", "critic"):
                if not all(math.isfinite(w) for w in agent[part]):
                    problems.append(f"checkpoint agent {k} {part}: non-finite weight")
        return problems


class CompareDeficit(CliWorkload):
    command = "compare"
    config = "configs/deficit_biased.yaml"
    replays = 4  # every mechanism replays each episode

    def setup(self) -> None:
        super().setup()
        from gridtrade import policies

        self.policy = policies.ScriptedPolicy(self.cfg.policy, margin=self.cfg.margin)

    def check_outputs(self, result: PassResult) -> list[str]:
        lines = (self.run_dir / "comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header[1:], map(float, line.split(",")[1:]))) for line in lines[1:]]
        result.episodes = self.episodes * self.replays
        problems = check_rows_finite(rows, "comparison.csv")
        if len(rows) != 4:
            problems.append(f"comparison.csv has {len(rows)} mechanisms, expected 4")
        return problems


class SimulateFleet(CliWorkload):
    """64 microgrids: the reference four cycled, market-factor thresholds
    scaled by n/4 so all three JPQ regimes occur."""

    command = "simulate"
    config = "configs/reference.yaml"
    fleet_size = 64

    def config_path(self) -> Path:
        return self.out / f"fleet{self.fleet_size}.yaml"

    def setup(self) -> None:
        import yaml

        raw = yaml.safe_load((self.root / self.config).read_text())
        scale = self.fleet_size / len(raw["fleet"])
        raw["fleet"] = [raw["fleet"][i % len(raw["fleet"])] for i in range(self.fleet_size)]
        raw["profiles"] = "bundled"
        raw["market_factor"] = {"lower": raw["market_factor"]["lower"] * scale,
                                "upper": raw["market_factor"]["upper"] * scale}
        self.config_path().write_text(yaml.safe_dump(raw, sort_keys=True))
        super().setup()

    def check_outputs(self, result: PassResult) -> list[str]:
        from gridtrade.reporting import read_metrics_csv

        rows = read_metrics_csv(self.run_dir / "metrics.csv")
        result.episodes = len(rows)
        with open(self.run_dir / "trajectory.jsonl") as fh:
            records = sum(1 for _ in fh)
        problems = check_rows_finite(rows, "metrics.csv")
        if records != result.ops:
            problems.append(f"trajectory has {records} records for {result.ops} steps")
        return problems


class ClearBooks:
    """Seeded synthetic books cleared directly through `gridtrade.market`.

    Every book is cleared by JPQ under all three market factors, greedy,
    MRDA and VVDA. Books mix sizes and buyer shares; prices are uniform in
    the envelope on both sides, so roughly half of each side can trade.
    """

    SIZES = (64, 512, 2048)
    SHARES = (0.2, 0.35, 0.5, 0.65, 0.8)
    ENVELOPE = (0.2, 0.5, 3.5)  # feed-in, day-ahead, emergency
    QTY = (0.5, 10.0)

    def __init__(self, root: Path, seed: int, shares: tuple, out: Path):
        self.seed, self.shares, self.out = seed, shares, out

    def setup(self) -> None:
        import numpy as np

        from gridtrade import market

        self.market = market
        env = market.PriceEnvelope(*self.ENVELOPE)
        self.books = []
        for size in self.SIZES:
            for share in self.shares:
                rng = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence([self.seed, size, round(100 * share)])))
                buyer = np.zeros(size, dtype=bool)
                buyer[: round(share * size)] = True
                rng.shuffle(buyer)
                ids = rng.permutation(size)
                prices = rng.uniform(env.feed_in, env.emergency, size)
                qty = rng.uniform(*self.QTY, size)
                quotes = [market.Quotation(int(a), float(p) if b else -float(p), float(q))
                          for a, p, q, b in zip(ids, prices, qty, buyer)]
                self.books.append((f"{size}/{share}", quotes))
        self.clears = [
            ("jpq", "clear_jpq", (market.SURPLUS, env.emergency)),
            ("jpq", "clear_jpq", (market.BALANCED, env.emergency)),
            ("jpq", "clear_jpq", (market.DEFICIT, env.emergency)),
            ("greedy", "clear_greedy", ()),
            ("mrda", "clear_mrda", (env, 3, 0.5)),
            ("vvda", "clear_vvda", ()),
        ]

    def run_pass(self) -> PassResult:
        result = PassResult(seconds=0.0, ops=0, latencies=[])
        digest = hashlib.sha256()
        market = self.market
        for label, quotes in self.books:
            for mech, fn_name, args in self.clears:
                clear = getattr(market, fn_name)  # looked up per call so a tracer's wrapper is seen
                t0 = perf_counter()
                ledger = clear(quotes, *args)
                elapsed = perf_counter() - t0
                result.latencies.append(elapsed)
                result.seconds += elapsed
                result.ops += 1
                result.quotes += len(quotes)
                result.attempted += 1
                problems = check_ledger(ledger, mech) + check_quantities(ledger, quotes)
                if problems:
                    result.failed += 1
                    result.problems.extend(f"{label} {p}" for p in problems[:3])
                digest.update(f"{label} {mech} {args[0] if mech == 'jpq' else ''}\n".encode())
                for t in ledger.trades:
                    digest.update(f"{t.buyer_id},{t.seller_id},{t.quantity!r},"
                                  f"{t.buyer_price!r},{t.seller_price!r}\n".encode())
                del ledger
        result.digest = digest.hexdigest()
        return result


WORKLOADS = ("train-desk", "compare-deficit", "simulate-fleet64", "clear-books")

# pass sizes: "full" for measurement, "tiny" for the self-test
SIZES = {
    "full": {"train-desk": 16, "compare-deficit": 16, "simulate-fleet64": 4,
             "clear-books": ClearBooks.SHARES},
    "tiny": {"train-desk": 2, "compare-deficit": 4, "simulate-fleet64": 1,
             "clear-books": (0.5,)},
}


def make(name: str, root: Path, seed: int, size: str, out: Path):
    cls = {"train-desk": TrainDesk, "compare-deficit": CompareDeficit,
           "simulate-fleet64": SimulateFleet, "clear-books": ClearBooks}[name]
    return cls(root, seed, SIZES[size][name], out)
