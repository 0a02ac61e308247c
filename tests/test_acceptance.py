"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite is deterministic. The learning-progress criterion
trains three 500-episode seeds and dominates the runtime (~10 minutes on
one desktop core).
"""

import math
import time

import numpy as np
import pytest
import yaml

from gridtrade.cli import main
from gridtrade.env import Action, EnvConfig, TradingEnv
from gridtrade.market import (
    BALANCED,
    MarketFactor,
    PriceEnvelope,
    Quotation,
    clear_greedy,
    clear_jpq,
    clear_mrda,
    clear_vvda,
)
from gridtrade.marl.autodiff import Tensor
from gridtrade.marl.nets import CriticNet, PolicyNet
from gridtrade.marl.ppo import (
    actor_loss,
    compute_gae,
    critic_loss,
    gradient_check,
    policy_logp_and_entropy,
)
from gridtrade.marl.train import Hyperparams, train
from gridtrade.microgrid import DEFAULT_FLEET, balance_residual
from gridtrade.reporting import read_metrics_csv

FUZZ_SETS = 10_000
ENVELOPE = PriceEnvelope(feed_in=0.2, day_ahead=1.0, emergency=2.0)


def ok(criterion: str, detail: str = ""):
    print(f"[PASS] {criterion}" + (f" — {detail}" if detail else ""))


@pytest.fixture(scope="module")
def fuzz_corpus():
    rng = np.random.default_rng(2024)
    corpus = []
    for _ in range(FUZZ_SETS):
        n = int(rng.integers(2, 17))
        quotes = []
        for i in range(n):
            price = float(rng.uniform(ENVELOPE.feed_in, ENVELOPE.emergency))
            if rng.random() < 0.5:
                price = -price
            qty = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 12.0))
            quotes.append(Quotation(i, price, qty))
        corpus.append((quotes, MarketFactor(int(rng.integers(-1, 2)))))
    return corpus


@pytest.fixture(scope="module")
def fuzz_ledgers(fuzz_corpus):
    started = time.monotonic()
    ledgers = []
    for quotes, m in fuzz_corpus:
        ledgers.append(
            {
                "jpq": clear_jpq(quotes, m, ENVELOPE.emergency),
                "greedy": clear_greedy(quotes),
                "mrda": clear_mrda(quotes, ENVELOPE),
                "vvda": clear_vvda(quotes),
            }
        )
    return ledgers, time.monotonic() - started


def test_c01_budget_balance(fuzz_ledgers):
    ledgers, elapsed = fuzz_ledgers
    for entry in ledgers:
        for name in ("jpq", "greedy", "mrda"):
            ledger = entry[name]
            pay_micro = ledger.total_payments_micro()
            rcv_micro = ledger.total_receipts_micro()
            assert pay_micro == rcv_micro
            # derived float totals are the identical number, not merely close
            assert pay_micro / 1e6 == rcv_micro / 1e6
        assert entry["vvda"].operator_surplus() >= 0.0
    assert elapsed < 10.0, f"clearing {FUZZ_SETS} fuzz sets took {elapsed:.1f}s"
    ok(
        "criterion 1 (budget balance)",
        f"{FUZZ_SETS} quotation sets exact for jpq/greedy/mrda, "
        f"vvda surplus >= 0, cleared in {elapsed:.1f}s",
    )


def test_c02_individual_rationality(fuzz_ledgers):
    ledgers, _ = fuzz_ledgers
    cells = 0
    for entry in ledgers:
        for ledger in entry.values():
            for t in ledger.trades:
                assert t.quantity > 0
                assert t.ask <= t.seller_price <= t.bid + 1e-12
                assert t.ask - 1e-12 <= t.buyer_price <= t.bid
                assert t.bid >= t.ask
                cells += 1
    ok("criterion 2 (individual rationality)", f"{cells} executed cells, zero violations")


def test_c03_jpq_hand_traces():
    def q(i, p, n):
        return Quotation(i, p, n)

    def tuples(ledger):
        return [(t.buyer_id, t.seller_id, t.quantity, t.buyer_price) for t in ledger.trades]

    # the reference 2x2 balanced instance: exactly one trade
    ledger = clear_jpq(
        [q(0, 1.0, 5), q(1, 0.8, 3), q(2, -0.5, 4), q(3, -0.9, 6)], BALANCED, 2.0
    )
    assert tuples(ledger) == [(0, 2, 4, 0.75)]

    traces = [
        # deficit: seller skip retires S1, buyer wrap-around
        ([q(0, 0.6, 5), q(1, -0.8, 2), q(2, -0.5, 3)], 1, 2.0,
         [(0, 2, 3, 0.55)]),
        # surplus: buyer skip retires the top absorber, wrap refills B2
        ([q(0, 0.4, 10), q(1, 0.9, 4), q(2, -0.5, 3), q(3, -0.7, 8)], -1, 2.0,
         [(1, 2, 3, 0.7), (1, 3, 1, 0.8)]),
        # balanced: non-front exhaustion keeps the start pointer on B1
        ([q(0, 1.0, 6), q(1, 0.9, 2), q(2, -0.2, 3), q(3, -0.3, 4)], 0, 2.0,
         [(0, 2, 3, 0.6), (1, 3, 2, 0.6), (0, 3, 2, 0.65)]),
        # surplus: every buyer priced out, skips empty the buy side
        ([q(0, 0.3, 2), q(1, 0.25, 2), q(2, -0.5, 2), q(3, -0.6, 2)], -1, 2.0,
         []),
        # deficit: seller wrap-around, two sequential fills
        ([q(0, 0.9, 10), q(1, -0.5, 2), q(2, -0.6, 3)], 1, 1.5,
         [(0, 2, 3, 0.75), (0, 1, 2, 0.7)]),
        # exact cross fills fully under every market factor
        ([q(0, 1.0, 5), q(1, -1.0, 5)], 0, 2.0, [(0, 1, 5, 1.0)]),
        ([q(0, 1.0, 5), q(1, -1.0, 5)], -1, 2.0, [(0, 1, 5, 1.0)]),
        ([q(0, 1.0, 5), q(1, -1.0, 5)], 1, 2.0, [(0, 1, 5, 1.0)]),
    ]
    for quotes, m, p_e, expected in traces:
        assert tuples(clear_jpq(quotes, MarketFactor(m), p_e)) == expected
    ok("criterion 3 (JPQ hand traces)", f"{1 + len(traces)} exact instances")


def test_c04_power_balance():
    steps_per_mechanism = 250
    rng = np.random.default_rng(7)
    total = 0
    for mechanism in ("jpq", "greedy", "mrda", "vvda"):
        cfg = EnvConfig(mechanism=mechanism, process_sigma=0.15)
        env = TradingEnv(cfg)
        env.reset(seed=100)
        t = 0
        for _ in range(steps_per_mechanism):
            if t >= cfg.horizon:
                env.reset(seed=100 + total)
                t = 0
            actions = [Action(*rng.uniform(-1, 1, 3)).clipped() for _ in range(4)]
            result = env.step(actions)
            for i, rec in enumerate(result.settlements):
                residual = balance_residual(
                    rec, env.state.load[i, t], env.state.gen[i, t]
                )
                assert abs(residual) <= 1e-9
            for p, energy in zip(cfg.fleet, env.state.energy.tolist()):
                assert p.e_min - 1e-9 <= energy <= p.e_max + 1e-9
            t += 1
            total += 1
    ok("criterion 4 (power balance)",
       f"{total} random steps across 4 mechanisms, residual <= 1e-9, SoC in bounds")


def test_c05_gae_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 65))
        rewards = rng.normal(size=T)
        values = rng.normal(size=T)
        bootstrap = float(rng.normal())
        gamma, lam = rng.uniform(0.5, 0.999, 2)
        fast = compute_gae(rewards, values, bootstrap, gamma, lam)
        ext = np.append(values, bootstrap)
        deltas = [rewards[t] + gamma * ext[t + 1] - ext[t] for t in range(T)]
        slow = np.array(
            [
                math.fsum((gamma * lam) ** k * deltas[l + k] for k in range(T - l))
                for l in range(T)
            ]
        )
        worst = max(worst, float(np.abs(fast - slow).max()))
    assert worst <= 1e-10
    ok("criterion 5 (GAE oracle)", f"200 sequences, max |diff| = {worst:.2e}")


def test_c06_gradient_checks():
    worst_actor = worst_critic = 0.0
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        net = PolicyNet(
            obs_dim=5, lstm_hidden=3, trunk_hidden=(4, 4),
            rngs=[np.random.default_rng(400 + trial)],
        )
        obs = rng.normal(size=(4, 5))
        presquash = rng.normal(size=(4, 3))
        logp_old = rng.normal(size=4) * 0.2
        adv = rng.normal(size=4)

        def actor_fn():
            means, log_std = net.forward_seq(obs[None, None])
            logp, entropy = policy_logp_and_entropy(means, log_std, presquash[None, None])
            return actor_loss(logp.reshape(4), logp_old, adv, entropy.reshape(()), 0.2, 0.01)

        report = gradient_check(net.params(), actor_fn, tol=1e-4)
        assert report.passed, f"actor net {trial}: rel error {report.max_rel_error}"
        worst_actor = max(worst_actor, report.max_rel_error)

        critic = CriticNet(input_dim=6, hidden=(5, 4),
                           rngs=[np.random.default_rng(500 + trial)])
        x = rng.normal(size=(6, 6))
        targets = rng.normal(size=6)

        def critic_fn():
            return critic_loss(critic.forward(x), targets)

        report = gradient_check(critic.params(), critic_fn, tol=1e-4)
        assert report.passed, f"critic net {trial}: rel error {report.max_rel_error}"
        worst_critic = max(worst_critic, report.max_rel_error)
    ok(
        "criterion 6 (gradient checks)",
        f"10 recurrent actor nets (worst {worst_actor:.2e}) and "
        f"10 critic nets (worst {worst_critic:.2e}) within 1e-4",
    )


def test_c07_ppo_clip_unit_values():
    def loss(rho, adv, eps):
        return float(
            actor_loss(
                Tensor(np.log(np.array([rho]))), np.array([0.0]), np.array([adv]),
                Tensor(0.0), eps, 0.0,
            ).data
        )

    assert loss(1.0, 1.0, 0.2) == pytest.approx(-1.0, abs=1e-12)
    assert loss(1.0, 1.0, 0.05) == pytest.approx(-1.0, abs=1e-12)
    assert loss(2.0, 1.0, 0.2) == pytest.approx(-1.2, abs=1e-12)
    assert loss(2.0, -1.0, 0.2) == pytest.approx(2.0, abs=1e-12)
    ok("criterion 7 (PPO-clip unit values)", "-1, -1.2, +2 exact")


def _deficit_biased_config(tmp_path, seed, episodes):
    fleet = [
        {
            "l_max": p.l_max, "g_max": p.g_max, "e_max": p.e_max,
            "t_charge_max": p.t_charge_max, "t_discharge_max": p.t_discharge_max,
            "e0": p.e0, "beta": 0.6,
        }
        for p in DEFAULT_FLEET
    ]
    path = tmp_path / "deficit.yaml"
    path.write_text(yaml.safe_dump({
        "fleet": fleet, "seed": seed, "episodes": episodes,
        "policy": "net-position",
    }))
    return path


def test_c08_mechanism_comparison(tmp_path):
    started = time.monotonic()
    cfg_path = _deficit_biased_config(tmp_path, seed=0, episodes=100)
    out = tmp_path / "cmp"
    rc = main([
        "compare", "--config", str(cfg_path), "--out", str(out),
        "--mechanism", "jpq", "--mechanism", "greedy",
        "--mechanism", "mrda", "--mechanism", "vvda",
    ])
    assert rc == 0
    elapsed = time.monotonic() - started

    rows = {}
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        parts = line.split(",")
        rows[parts[0]] = dict(zip(header[1:], map(float, parts[1:])))

    jpq = rows["jpq"]["emergency_kwh"]
    deltas = {
        name: rows[name]["emergency_kwh"] - jpq for name in ("greedy", "mrda", "vvda")
    }
    for name, delta in deltas.items():
        assert delta >= 0.0, f"jpq emergency above {name} by {-delta:.5f} kWh"
    assert elapsed < 120.0, f"comparison took {elapsed:.0f}s"
    ok(
        "criterion 8 (mechanism comparison)",
        "jpq emergency {:.4f} kWh <= others; deltas: {}; {:.0f}s".format(
            jpq,
            ", ".join(f"{k}+{v:.4f}" for k, v in deltas.items()),
            elapsed,
        ),
    )


def test_c09_learning_progress(tmp_path):
    started = time.monotonic()

    # oracle scores first, via the simulate command
    scores = {}
    for rule in ("random", "net-position"):
        out = tmp_path / f"oracle_{rule}"
        cfg = tmp_path / f"{rule}.yaml"
        cfg.write_text(yaml.safe_dump({"policy": rule, "seed": 1000, "episodes": 50}))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_metrics_csv(out / "metrics.csv")
        scores[rule] = float(np.mean([r["reward"] for r in rows]))
    random_score = scores["random"]
    heuristic_score = scores["net-position"]
    gap = heuristic_score - random_score
    assert gap > 0, "scripted heuristic must beat the random policy"
    threshold = random_score + 0.2 * gap

    results = {}
    for seed in (0, 1, 2):
        result = train(EnvConfig(), Hyperparams(episodes=500), seed=seed)
        rewards = np.array([m["reward"] for m in result.metrics])
        results[seed] = float(rewards[-50:].mean())
        assert results[seed] >= threshold, (
            f"seed {seed}: last-50 reward {results[seed]:.4f} "
            f"below threshold {threshold:.4f} "
            f"(random {random_score:.4f}, heuristic {heuristic_score:.4f})"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 1800.0, f"training took {elapsed/60:.1f} min"
    ok(
        "criterion 9 (learning progress)",
        "last-50 rewards "
        + ", ".join(f"seed{k}={v:+.4f}" for k, v in results.items())
        + f" all >= {threshold:+.4f} (random {random_score:+.4f}, "
        f"heuristic {heuristic_score:+.4f}); {elapsed/60:.1f} min",
    )


def test_c10_determinism(tmp_path):
    pairs = []
    for run in ("a", "b"):
        out = tmp_path / f"sim_{run}"
        assert main(["simulate", "--episodes", "3", "--seed", "11",
                     "--out", str(out)]) == 0
        pairs.append(out)
    for name in ("metrics.csv", "trajectory.jsonl"):
        assert (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()

    cmp_pairs = []
    for run in ("a", "b"):
        out = tmp_path / f"cmp_{run}"
        assert main(["compare", "--episodes", "2", "--seed", "11", "--out", str(out),
                     "--mechanism", "jpq", "--mechanism", "greedy"]) == 0
        cmp_pairs.append(out)
    assert (cmp_pairs[0] / "comparison.csv").read_bytes() == (
        cmp_pairs[1] / "comparison.csv"
    ).read_bytes()

    train_pairs = []
    cfg = tmp_path / "train.yaml"
    cfg.write_text(yaml.safe_dump({
        "learner": {"lstm_hidden": 4, "actor_hidden": [8, 8],
                    "critic_hidden": [8, 8], "episodes_per_update": 2, "epochs": 2},
        "episodes": 4, "seed": 13,
    }))
    for run in ("a", "b"):
        out = tmp_path / f"train_{run}"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        train_pairs.append(out)
    assert (train_pairs[0] / "metrics.csv").read_bytes() == (
        train_pairs[1] / "metrics.csv"
    ).read_bytes()
    assert (train_pairs[0] / "checkpoint.json").read_bytes() == (
        train_pairs[1] / "checkpoint.json"
    ).read_bytes()
    ok("criterion 10 (determinism)",
       "simulate/compare/train reruns byte-identical")
