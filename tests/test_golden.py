"""Golden sha256 digests of command outputs and of one large clear.

The digests pin behaviour across refactors: a change that is meant to keep
every number must leave all of them unchanged. A change that alters random
streams or float rounding on purpose re-baselines them and says so in
CHANGES.md. `manifest.json` is not pinned because it records the numpy
version.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridtrade.cli import main
from gridtrade.market import (
    BALANCED,
    PriceEnvelope,
    Quotation,
    clear_greedy,
    clear_jpq,
    clear_mrda,
    clear_vvda,
)

# On these 4-agent days no MRDA concession round finds a cross, so its files
# equal greedy's; the large book below pins the concession rounds.
SIMULATE = {
    "jpq": {
        "trajectory.jsonl": "454e497a0c4527a57da3ece4694fcdc9866f2da145542f586642a3f97818bd0e",
        "metrics.csv": "d12fc30c2292979f7da823e78e18070e30ad4829d19af7584d3ebf31662173e7",
    },
    "greedy": {
        "trajectory.jsonl": "057f10196ce8188326027425179eddb8bc0293112aff7ccd0fa760ec4efecf26",
        "metrics.csv": "a32edafb7be3da538a45d1670b6d7b00622adac0e21543d117dc863d9b86e4fc",
    },
    "mrda": {
        "trajectory.jsonl": "057f10196ce8188326027425179eddb8bc0293112aff7ccd0fa760ec4efecf26",
        "metrics.csv": "a32edafb7be3da538a45d1670b6d7b00622adac0e21543d117dc863d9b86e4fc",
    },
    "vvda": {
        "trajectory.jsonl": "1a46d288c1536ed96715ab785e77bf3caee73184bd3344d5de170c16f9344b57",
        "metrics.csv": "4e32f5cf90b4e8c9cb929d7f09a1f6a7adf4de8d52ce9be24b22c993bd42a532",
    },
}
COMPARE = {"comparison.csv": "f20dde351854bdc752454b97ebc7f4cd533156daa238919734dae95865749b08"}
TRAIN = {
    "metrics.csv": "3d601436977b98580a62a808e68a2eebde2d2af75e0b8ae51c7008565112356b",
    "checkpoint.json": "24aee1251774d9a0fe91a9a3f3abebc3beafa12579ed874fdfc4208d7d49b8d9",
}
# 10 episodes in update rounds of 4, 4 and a partial 2, with small nets.
TRAIN_ROUNDS = {
    "metrics.csv": "471ec6633e84ae74b5d52a73842ccad76499510870d17023baf36156aee557cd",
    "checkpoint.json": "f721b77ca98d411340e18f09e06c413958fc53fc78bfcab0158d1a0ab042bfc9",
}
TRAIN_ROUNDS_LEARNER = {
    "episodes_per_update": 4,
    "lstm_hidden": 4,
    "actor_hidden": [8, 8],
    "critic_hidden": [8, 8],
    "epochs": 2,
}
# 64 microgrids: the reference four cycled, market-factor thresholds scaled
# by 16, one episode; these exercise the n=64 paths of the environment.
FLEET64 = {
    "jpq": {
        "trajectory.jsonl": "6e095087f218a23e409326df4b6595e051660a7faaf28cd83a4477152a80c4ff",
        "metrics.csv": "fa23962940c63094e3e015487f1867aafc4b74f9865c08e83727144a08bf4f7c",
    },
    "vvda": {
        "trajectory.jsonl": "f611762057d2f96ee4e0dd9e2680967fe995a3d334e7fbbb3279ab684daa32cb",
        "metrics.csv": "51bc269d660afce06b5985903be388313314ba9d5b096879d853850c3a2f2ccf",
    },
}
BOOK = {
    "jpq": "45598abce76b314953164a222cd9b481ec1f2508399f979eabb7f3a676a518d0",
    "greedy": "3606b2e27c3670b12a8545afed26ca1f2a04ca6cd85c30f110c9b5bac3ec72d0",
    "mrda": "bb253c57f6a43d3af9c6f398bd6ead76986f75c9828e3009e14db51845c19f52",
    "vvda": "d7e525a6e74740a5df6f1c83f5216a1661c0464721ae66f2245df60e7631078b",
}

REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"
BOOK_ENVELOPE = PriceEnvelope(feed_in=0.2, day_ahead=0.5, emergency=3.5)


def file_digests(out, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def fleet64_config(path):
    """The reference config with its fleet cycled to 64 and thresholds x16."""
    raw = yaml.safe_load(REFERENCE.read_text())
    raw["fleet"] = [raw["fleet"][i % 4] for i in range(64)]
    raw["market_factor"] = {"lower": -30.0 * 16, "upper": -20.0 * 16}
    path.write_text(yaml.safe_dump(raw, sort_keys=True))
    return path


def large_book(n: int = 2048, seed: int = 2048) -> list[Quotation]:
    """Seeded book with unique agent ids, half buyers, prices over the envelope."""
    rng = np.random.default_rng(seed)
    prices = rng.uniform(BOOK_ENVELOPE.feed_in, BOOK_ENVELOPE.emergency, n)
    buys = rng.random(n) < 0.5
    qtys = rng.uniform(0.5, 10.0, n)
    return [
        Quotation(i, float(p if b else -p), float(x))
        for i, (p, b, x) in enumerate(zip(prices, buys, qtys))
    ]


def trades_digest(ledger) -> str:
    h = hashlib.sha256()
    for t in ledger.trades:
        fields = (t.buyer_id, t.seller_id, t.quantity, t.buyer_price, t.seller_price,
                  t.bid, t.ask)
        h.update((",".join(map(repr, fields)) + "\n").encode())
    return h.hexdigest()


def book_digests() -> dict:
    quotes = large_book()
    return {
        "jpq": trades_digest(clear_jpq(quotes, BALANCED, BOOK_ENVELOPE.emergency)),
        "greedy": trades_digest(clear_greedy(quotes)),
        "mrda": trades_digest(clear_mrda(quotes, BOOK_ENVELOPE)),
        "vvda": trades_digest(clear_vvda(quotes)),
    }


@pytest.mark.parametrize("mechanism", sorted(SIMULATE))
def test_simulate_digests(tmp_path, mechanism):
    out = tmp_path / mechanism
    assert main(["simulate", "--episodes", "2", "--seed", "1", "--mechanism", mechanism,
                 "--out", str(out)]) == 0
    assert file_digests(out, SIMULATE[mechanism]) == SIMULATE[mechanism]


@pytest.mark.parametrize("mechanism", sorted(FLEET64))
def test_simulate_fleet64_digests(tmp_path, mechanism):
    config = fleet64_config(tmp_path / "fleet64.yaml")
    out = tmp_path / mechanism
    assert main(["simulate", "--config", str(config), "--episodes", "1", "--seed", "1",
                 "--mechanism", mechanism, "--out", str(out)]) == 0
    assert file_digests(out, FLEET64[mechanism]) == FLEET64[mechanism]


def test_compare_digest(tmp_path):
    assert main(["compare", "--episodes", "2", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert file_digests(tmp_path, COMPARE) == COMPARE


def test_train_digests(tmp_path):
    assert main(["train", "--episodes", "2", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert file_digests(tmp_path, TRAIN) == TRAIN


def test_train_multi_round_digests(tmp_path):
    config = tmp_path / "rounds.yaml"
    config.write_text(yaml.safe_dump({"learner": TRAIN_ROUNDS_LEARNER}))
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--episodes", "10", "--seed", "1",
                 "--out", str(out)]) == 0
    assert file_digests(out, TRAIN_ROUNDS) == TRAIN_ROUNDS


def test_large_book_trades_digest():
    assert book_digests() == BOOK


def test_large_book_mrda_trades_after_round_one():
    quotes = large_book()
    assert len(clear_mrda(quotes, BOOK_ENVELOPE).trades) > len(clear_greedy(quotes).trades)
