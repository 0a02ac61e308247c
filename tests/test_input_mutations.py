"""Mutation harness: every input the CLI reads, set to a fixed list of bad
values, must end `main` with exit code 0, 1 or 2 (argparse's SystemExit(2)
counts). Any other exception is a finding; each test collects its findings
and fails listing every input that raised.

The inputs: each leaf of `configs/reference.yaml`, each `GRIDTRADE_*`
override (the same leaves and every learner setting), the profile and price
CSV files, checkpoint payloads (with a broken and with a recomputed
checksum) and the trajectory and metrics files given to `export`. The value
lists are fixed, so every run mutates the same inputs in the same order.
Very large `episodes` and `epochs` values are legal long runs, so they are
left out rather than capped.
"""

import copy
import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from gridtrade.cli import main
from gridtrade.marl.train import Hyperparams

DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"

#: quoted numbers (1e-3 is how PyYAML reads a float written without a
#: point), bools, null, text, zero, negative, fractional, huge and
#: non-finite numbers, and containers
BAD_VALUES = (True, False, None, "3", "0.5", "1e-3", "abc", "", -1, 0, 1.5, 10**30,
              float("nan"), float("inf"), float("-inf"), [], {}, [1, 2], {"x": 1})

#: the same kinds as `GRIDTRADE_*` text, plus text that is not YAML at all and
#: an int too long for Python to read
BAD_TEXTS = ("true", "null", "'3'", "1e-3", "abc", "", "-1", "0", "1.5", "1" + "0" * 30,
             "9" * 5000, ".nan", ".inf", "[]", "{}", "[1, 2]", "a: [", "\udcff")

#: counts whose huge values are legal, very long runs
LONG_RUN_KEYS = ("episodes", "epochs")

TINY_LEARNER = {"lstm_hidden": 4, "actor_hidden": [8, 8], "critic_hidden": [8, 8],
                "epochs": 1, "episodes_per_update": 1}


def long_run(key, value) -> bool:
    return key in LONG_RUN_KEYS and value in (10**30, "1" + "0" * 30)


def leaves(node, path=()):
    """The path of every leaf of a parsed YAML document; an empty mapping is a leaf."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaves(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from leaves(value, (*path, i))
    else:
        yield path


def with_value(doc, path, value):
    """`doc` with the leaf at `path` set to `value`; the containers on the path are copied."""
    if not path:
        return value
    doc = copy.copy(doc)
    doc[path[0]] = with_value(doc[path[0]], path[1:], value)
    return doc


class Harness:
    def __init__(self, tmp_path, capsys, monkeypatch):
        self.tmp = tmp_path
        self.out = str(tmp_path / "out")
        self.capsys = capsys
        self.monkeypatch = monkeypatch
        self.found = []

    def config(self, doc, name="run.yaml") -> str:
        path = self.tmp / name
        path.write_text(yaml.dump(doc, Dumper=DUMPER))
        return str(path)

    def run(self, label, argv, environ=None):
        """Run `main(argv)` under `environ` and record any outcome but exit 0, 1 or 2."""
        with self.monkeypatch.context() as mp:
            for key, value in (environ or {}).items():
                mp.setenv(key, value)
            try:
                outcome = main(argv)
            except SystemExit as e:  # argparse's usage error
                outcome = e.code
            except Exception as e:  # noqa: BLE001 - this is what the harness looks for
                outcome = e
        self.capsys.readouterr()
        if type(outcome) is not int or outcome not in (0, 1, 2):
            self.found.append(f"{label}: {outcome!r}")

    def check(self):
        assert not self.found, "\n".join(["inputs that escaped main():", *self.found])


@pytest.fixture
def harness(tmp_path, capsys, monkeypatch):
    return Harness(tmp_path, capsys, monkeypatch)


def reference(**changes) -> dict:
    doc = yaml.safe_load(REFERENCE.read_text())
    doc.update(episodes=1, **changes)
    return doc


def test_every_config_leaf(harness):
    base = reference()
    for path in leaves(base):
        for value in BAD_VALUES:
            if long_run(path[-1], value):
                continue
            cfg = harness.config(with_value(base, path, value))
            harness.run(f"{path} = {value!r}",
                        ["simulate", "--config", cfg, "--out", harness.out])
    (harness.tmp / "long.yaml").write_text("seed: " + "9" * 5000 + "\n")
    harness.run("seed = 9 * 5000 digits",
                ["simulate", "--config", str(harness.tmp / "long.yaml"), "--out", harness.out])
    harness.check()


def test_every_env_override(harness):
    base = reference()
    simulate = harness.config(base)
    train = harness.config(reference(learner=TINY_LEARNER), "train.yaml")
    keys = {path[:1] if path[0] == "fleet" else path for path in leaves(base)}
    keys |= {("learner", f.name) for f in fields(Hyperparams)}
    for path in sorted(keys):
        var = "GRIDTRADE_" + "__".join(path).upper()
        command, cfg = ("train", train) if path[0] == "learner" else ("simulate", simulate)
        for text in BAD_TEXTS:
            if long_run(path[-1], text):
                continue
            harness.run(f"{var}={text[:40]!r}", [command, "--config", cfg, "--out", harness.out],
                        environ={var: text})
    harness.check()


def hourly_csv(header, row) -> bytes:
    return "\n".join([header, *(row(h) for h in range(24))]).encode() + b"\n"


def first_cell(data: bytes, value: bytes) -> bytes:
    """`data` with the last field of its second line set to `value`."""
    lines = data.split(b"\n")
    lines[1] = lines[1].rsplit(b",", 1)[0] + b"," + value
    return b"\n".join(lines)


#: damage done to a text table (or a JSON-lines file) before the CLI reads it
TABLE_MUTATIONS = {
    "empty": lambda data: b"",
    "header-only": lambda data: data.split(b"\n")[0] + b"\n",
    "truncated-rows": lambda data: b"\n".join(data.split(b"\n")[:10]) + b"\n",
    "truncated-mid-line": lambda data: data[: len(data) // 2],
    "extra-row": lambda data: data + data.split(b"\n")[1] + b"\n",
    "non-utf8": lambda data: b"\xff\xfe" + data,
    "nan": lambda data: first_cell(data, b"nan"),
    "inf": lambda data: first_cell(data, b"inf"),
    "negative": lambda data: first_cell(data, b"-0.5"),
    "above-one": lambda data: first_cell(data, b"2.5"),
    "blank-cell": lambda data: first_cell(data, b""),
    "text-cell": lambda data: first_cell(data, b"abc"),
    "quoted-cell": lambda data: first_cell(data, b'"0.5"'),
    "wrong-columns": lambda data: data.replace(b"hour,", b"time,", 1).replace(b",pv", b",solar"),
    "extra-column": lambda data: data.replace(b"\n", b",7\n"),
    "missing-column": lambda data: b"\n".join(row.rsplit(b",", 1)[0]
                                              for row in data.split(b"\n")),
}


def test_profile_and_price_csvs(harness):
    profile = hourly_csv("hour,load,pv", lambda h: f"{h},0.5,{0.5 if 8 <= h <= 16 else 0}")
    prices = hourly_csv("hour,emergency", lambda h: f"{h},{2 + h / 24:.3f}")
    names = [f"p{i}.csv" for i in range(4)]
    cfg = harness.config(reference(profiles=names, prices="prices.csv"))
    for target, good in ((names[1], profile), ("prices.csv", prices)):
        for label, mutate in TABLE_MUTATIONS.items():
            for name in names:
                (harness.tmp / name).write_bytes(profile)
            (harness.tmp / "prices.csv").write_bytes(prices)
            (harness.tmp / target).write_bytes(mutate(good))
            harness.run(f"{target} {label}", ["simulate", "--config", cfg, "--out", harness.out])
    harness.check()


def checkpoint_file(payload) -> str:
    """`payload` in the compact envelope a checkpoint file has, under its own checksum."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f'{{"checksum":"{hashlib.sha256(body.encode()).hexdigest()}","payload":{body}}}'


# a loaded weight of 1e30 overflows the gates' exp; the run still ends with exit 0
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_checkpoint_payloads(harness):
    # a one-hour window keeps the nets, and so every file, small
    cfg = harness.config(reference(learner=TINY_LEARNER, window={"past": 0, "future": 0}))
    made = harness.tmp / "made"
    assert main(["train", "--config", cfg, "--out", str(made)]) == 0
    text = (made / "checkpoint.json").read_bytes()
    payload = json.loads(text)["payload"]
    ck = harness.tmp / "checkpoint.json"
    resume = ["train", "--config", cfg, "--episodes", "2", "--out", harness.out,
              "--resume", str(ck)]

    at = text.index(b'"actor":[') + len(b'"actor":[')
    broken = {
        "empty": b"",
        "truncated": text[: len(text) // 2],
        "non-utf8": b"\xff" + text,
        "not-json": b"{",
        "json-list": b"[]",
        "weight-digit-flipped": text[:at + 3] + bytes([text[at + 3] ^ 1]) + text[at + 4:],
        "int-too-long": text[:at] + b"1" * 5000 + b"," + text[at:],
        "checksum-missing": json.dumps({"payload": payload}).encode(),
    }
    for label, data in broken.items():
        ck.write_bytes(data)
        harness.run(f"checkpoint {label}", resume)

    paths = [(key,) for key in payload]
    paths += [("hyper", key) for key in payload["hyper"]]
    paths += [("hyper", "actor_hidden", 0), ("hyper", "critic_hidden", 1),
              ("agents", 0), ("agents", 1, "actor"), ("agents", 3, "critic"),
              ("agents", 1, "actor", 0), ("agents", 2, "critic", -1)]
    for path in paths:
        for value in BAD_VALUES:
            mutated = with_value(payload, path, value)
            ck.write_text(checkpoint_file(mutated))
            harness.run(f"checkpoint payload {path} = {value!r}", resume)
    harness.check()


def test_export_inputs(harness):
    made = harness.tmp / "made"
    assert main(["simulate", "--episodes", "2", "--seed", "3", "--out", str(made)]) == 0
    trajectory = (made / "trajectory.jsonl").read_bytes()
    metrics = (made / "metrics.csv").read_bytes()
    src = harness.tmp / "input"

    def export(label, suffix, data, fmt="csv"):
        path = src.with_suffix(suffix)
        path.write_bytes(data)
        harness.run(label, ["export", "--input", str(path), "--format", fmt,
                            "--out", harness.out])

    for name, data, suffix in (("trajectory", trajectory, ".jsonl"),
                               ("metrics", metrics, ".csv")):
        for label, mutate in TABLE_MUTATIONS.items():
            export(f"{name} {label}", suffix, mutate(data))
        export(f"{name} cut at its first line", suffix, data.split(b"\n", 1)[1])
    first, rest = trajectory.split(b"\n", 1)
    record = json.loads(first)
    for path in [*((key,) for key in record), ("settlements", "q_e"), ("rewards", 0)]:
        for value in BAD_VALUES:
            line = json.dumps(with_value(record, path, value)).encode()
            export(f"trajectory record {path} = {value!r}", ".jsonl", line + b"\n" + rest)
    for fmt in ("json", "", "xml", "CSV"):
        export(f"--format {fmt!r}", ".csv", metrics, fmt)
    for argv in (["export"], ["export", "--input", str(harness.tmp / "missing.csv")],
                 ["export", "--input", str(harness.tmp)], ["simulate", "--seed", "x"],
                 ["simulate", "--episodes", "-1"], ["simulate", "--mechanism", "vcg"],
                 ["compare", "--mechanism", "jpq"], ["compare", "--mechanism", "jpq",
                                                     "--mechanism", "vcg"]):
        harness.run(" ".join(argv), [*argv, "--out", harness.out])
    harness.check()
