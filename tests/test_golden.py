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
        "trajectory.jsonl": "a6125494f83afae47d333c841666a92e1462863bd43bc2cf9f903e292691ea32",
        "metrics.csv": "2a00e5470ab872f81a2fd8db605c3b18043882f1520a12f437efd1a062937f12",
    },
    "greedy": {
        "trajectory.jsonl": "c3c6e9c31b9be944707a068a09ee442ed2834479cf3f31e21f2d52334e81d2b1",
        "metrics.csv": "cf2cad451ffbfabe5628e14b80438a52afae040113f71349ef814f19779df0c6",
    },
    "mrda": {
        "trajectory.jsonl": "c3c6e9c31b9be944707a068a09ee442ed2834479cf3f31e21f2d52334e81d2b1",
        "metrics.csv": "cf2cad451ffbfabe5628e14b80438a52afae040113f71349ef814f19779df0c6",
    },
    "vvda": {
        "trajectory.jsonl": "5e1ef3828870cffa7a935497cbe86034ea618e5621145197e149cf05554f16cd",
        "metrics.csv": "56ea7f1500df8ede0e1d8cc1f7dcdfa42d741250d0498794d1a82bf368eaf9d9",
    },
}
COMPARE = {"comparison.csv": "6bfc2993bc455ca28d38a7741ab247edf29f54522d1dc2235d085af1ea283e08"}
TRAIN = {
    "metrics.csv": "7da838994c0fa7c333fb907a36e6176d7ae5b98d43c78771312e662a4af3ff04",
    "checkpoint.json": "c0b425277df2ca97e453457a7f5dbddf39e3fa35cdf25e6d4a190388f0cae2a9",
}
# 10 episodes in update rounds of 4, 4 and a partial 2, with small nets.
TRAIN_ROUNDS = {
    "metrics.csv": "59664148ebd2882b5ffccc399c7a2427740db77c285bc154dfbb30c55f3b1125",
    "checkpoint.json": "c13c98e664142880d4dc452dc8ac685d2e7f68986a9a41ded24d3668b66b689e",
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
        "trajectory.jsonl": "11d1af684255863f66368e056594a3e28698e0557503837a13517688cb067cbc",
        "metrics.csv": "db77c35cd9b7adcc6a6ca6e45745ea3d004fd88a121958fe0694e30147adc37c",
    },
    "vvda": {
        "trajectory.jsonl": "314dbfe2bed65cfec5eb5f3903f65d1b5a28f05b5c0efb9f4a0b3dda0f0e775a",
        "metrics.csv": "e13fa322d3664e4249a0ae0aea0a57941d82d8c52c1620bf18e6e5ff52b541f3",
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
