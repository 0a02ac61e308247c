"""CLI command tests: outputs, determinism, error handling, checkpoints."""

import json
import os
import tracemalloc

import pytest
import yaml

from gridtrade import reporting
from gridtrade.cli import main
from gridtrade.config import default_config_dict
from gridtrade.env import EnvConfig
from gridtrade.errors import ChecksumMismatch, UnknownFormat
from gridtrade.marl.train import Hyperparams, build_nets
from gridtrade.reporting import (
    _payload_checksum,
    export_tidy,
    load_checkpoint,
    read_metrics_csv,
    save_checkpoint,
)

FAST_LEARNER = {
    "learner": {
        "lstm_hidden": 4,
        "actor_hidden": [8, 8],
        "critic_hidden": [8, 8],
        "epochs": 2,
        "episodes_per_update": 2,
    }
}


def write_cfg(tmp_path, **kw):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(kw))
    return str(path)


class TestSimulate:
    def test_outputs_and_row_count(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--episodes", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert [r["episode"] for r in rows] == [0, 1, 2]
        lines = (out / "trajectory.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3 * 24
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["episodes"] == 3 and manifest["seed"] == 1

    def test_zero_episodes_header_only(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--episodes", "0", "--out", str(out)])
        assert rc == 0
        text = (out / "metrics.csv").read_text()
        assert text.count("\n") == 1 and text.startswith("episode,")

    def test_unknown_mechanism_exit_code_2(self, tmp_path):
        cfg = write_cfg(tmp_path, mechanism="vcg")
        rc = main(["simulate", "--config", cfg, "--episodes", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--episodes", "2", "--seed", "7",
                         "--out", str(out)]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "trajectory.jsonl").read_bytes() == (b / "trajectory.jsonl").read_bytes()

    def test_missing_config_file_exit_1(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1


class TestCompare:
    def test_paired_comparison_table(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--episodes", "2", "--seed", "3", "--out", str(out),
                   "--mechanism", "jpq", "--mechanism", "greedy"])
        assert rc == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("jpq,") and lines[2].startswith("greedy,")
        # deltas of the base row are exactly zero
        assert lines[1].split(",")[5:] == ["0.0"] * 4

    def test_single_mechanism_rejected(self, tmp_path):
        rc = main(["compare", "--episodes", "1", "--out", str(tmp_path / "o"),
                   "--mechanism", "jpq"])
        assert rc == 2

    def test_zero_episodes_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["compare", "--episodes", "0", "--out", str(out)])
        assert rc == 2
        assert "episodes" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["compare", "--episodes", "2", "--seed", "5",
                         "--out", str(out), "--mechanism", "jpq",
                         "--mechanism", "vvda"]) == 0
        assert (a / "comparison.csv").read_bytes() == (b / "comparison.csv").read_bytes()


class TestTrain:
    def test_smoke_and_metrics_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, **FAST_LEARNER)
        out = tmp_path / "tr"
        rc = main(["train", "--config", cfg, "--episodes", "5", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert len(rows) == 5
        assert (out / "checkpoint.json").exists()

    def test_resume_continues_episode_index(self, tmp_path):
        cfg = write_cfg(tmp_path, **FAST_LEARNER)
        out = tmp_path / "tr"
        assert main(["train", "--config", cfg, "--episodes", "3", "--seed", "2",
                     "--out", str(out)]) == 0
        assert main(["train", "--config", cfg, "--episodes", "2", "--seed", "2",
                     "--out", str(out),
                     "--resume", str(out / "checkpoint.json")]) == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert [r["episode"] for r in rows] == [0, 1, 2, 3, 4]

    def test_resume_with_nets_that_do_not_fit_exits_1(self, tmp_path, capsys):
        out = tmp_path / "tr"
        assert main(["train", "--config", write_cfg(tmp_path, **FAST_LEARNER),
                     "--episodes", "1", "--seed", "2", "--out", str(out)]) == 0
        # a longer observation window changes obs_dim; sizes and agent count stay
        cfg = write_cfg(tmp_path, window={"past": 1, "future": 3}, **FAST_LEARNER)
        rc = main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                   "--out", str(out), "--resume", str(out / "checkpoint.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "checkpoint.json") in err
        assert "agent 0" in err and "actor" in err

    def test_resume_with_other_network_sizes_exits_1_naming_the_file(self, tmp_path, capsys):
        out = tmp_path / "tr"
        assert main(["train", "--config", write_cfg(tmp_path, **FAST_LEARNER),
                     "--episodes", "1", "--seed", "2", "--out", str(out)]) == 0
        cfg = write_cfg(tmp_path, learner={**FAST_LEARNER["learner"], "lstm_hidden": 5})
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                   "--out", str(out), "--resume", str(out / "checkpoint.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "checkpoint.json") in err
        assert "network sizes do not match" in err

    @pytest.mark.parametrize("field,value,message", [
        ("version", 99, "version 99 not supported"),
        ("agents", 3, "has 3 agents, config has 4"),
    ])
    def test_resume_from_a_foreign_payload_exits_1_naming_the_file(self, tmp_path, capsys,
                                                                  field, value, message):
        out = tmp_path / "tr"
        cfg = write_cfg(tmp_path, **FAST_LEARNER)
        assert main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        ck = out / "checkpoint.json"
        payload = json.loads(ck.read_text())["payload"]
        payload[field] = payload["agents"][:value] if field == "agents" else value
        ck.write_text(json.dumps({"checksum": _payload_checksum(payload), "payload": payload}))
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                   "--out", str(out), "--resume", str(ck)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ck) in err and message in err

    def test_resume_from_a_json_array_exits_1(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        ck.write_text("[]\n")
        rc = main(["train", "--config", write_cfg(tmp_path, **FAST_LEARNER), "--episodes", "1",
                   "--out", str(tmp_path / "tr"), "--resume", str(ck)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ck) in err

    @pytest.mark.parametrize("field", ["version", "hyper", "agents", "episode", "actor",
                                       "critic", "all-but-version"])
    def test_resume_from_a_payload_missing_a_field_exits_1(self, tmp_path, capsys, field):
        out = tmp_path / "tr"
        cfg = write_cfg(tmp_path, **FAST_LEARNER)
        assert main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        ck = out / "checkpoint.json"
        payload = json.loads(ck.read_text())["payload"]
        if field == "all-but-version":
            payload = {"version": payload["version"]}
        elif field in ("actor", "critic"):
            del payload["agents"][1][field]
        else:
            del payload[field]
        # a well-formed envelope: the checksum matches the damaged payload
        ck.write_text(json.dumps({"checksum": _payload_checksum(payload), "payload": payload}))
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                   "--out", str(out), "--resume", str(ck)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ck) in err

    @pytest.mark.parametrize("field,value", [
        ("hyper", [4, [8, 8], [8, 8]]),
        ("hyper", {"actor_hidden": [8, 8], "critic_hidden": [8, 8]}),
        ("hyper", {"lstm_hidden": 4, "critic_hidden": [8, 8]}),
        ("hyper", {"lstm_hidden": 4, "actor_hidden": [8, 8]}),
        ("episode", "3"),
        ("episode", [3]),
        ("episode", True),
        ("episode", -1),
        ("actor", {"weights": [0.5]}),
        ("critic", {"weights": [0.5]}),
        ("actor-weight", None),
        ("actor-weight", float("nan")),
        ("critic-weight", float("inf")),
        ("actor-weight", True),
        ("critic-weight", {}),
        ("actor-weight", 10**400),
        ("version", True),
        ("version", 1.0),
        ("hyper", {"lstm_hidden": 4.0, "actor_hidden": [8, 8], "critic_hidden": [8, 8]}),
    ], ids=["hyper-list", "hyper-no-lstm-hidden", "hyper-no-actor-hidden",
            "hyper-no-critic-hidden", "episode-string", "episode-list", "episode-bool",
            "episode-negative", "actor-mapping", "critic-mapping", "actor-weight-null",
            "actor-weight-nan", "critic-weight-infinity", "actor-weight-true",
            "critic-weight-object", "actor-weight-huge-int", "version-true", "version-float",
            "hyper-lstm-hidden-float"])
    def test_resume_from_a_payload_with_a_mistyped_field_exits_1(self, tmp_path, capsys,
                                                               field, value):
        out = tmp_path / "tr"
        cfg = write_cfg(tmp_path, **FAST_LEARNER)
        assert main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        ck = out / "checkpoint.json"
        payload = json.loads(ck.read_text())["payload"]
        if field in ("actor", "critic"):
            payload["agents"][1][field] = value
        elif field.endswith("-weight"):
            payload["agents"][1][field.split("-")[0]][3] = value
        else:
            payload[field] = value
        ck.write_text(json.dumps({"checksum": _payload_checksum(payload), "payload": payload}))
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                   "--out", str(out), "--resume", str(ck)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ck) in err
        if field.endswith("-weight"):
            assert f"agent 1 {field.split('-')[0]}" in err
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(ck, EnvConfig(), Hyperparams(**{
                **FAST_LEARNER["learner"], "actor_hidden": (8, 8), "critic_hidden": (8, 8)
            }), seed=2)

    def test_resume_onto_another_fleets_metrics_exits_1_before_training(self, tmp_path, capsys):
        out = tmp_path / "tr"
        assert main(["train", "--config", write_cfg(tmp_path, **FAST_LEARNER),
                     "--episodes", "1", "--seed", "2", "--out", str(out)]) == 0
        checkpoint = (out / "checkpoint.json").read_bytes()
        # a 2-agent table left in the 4-agent run's directory
        two = tmp_path / "two"
        two.mkdir()
        fleet = default_config_dict()["fleet"][:2]
        assert main(["simulate", "--config", write_cfg(two, fleet=fleet), "--episodes", "1",
                     "--out", str(two)]) == 0
        (out / "metrics.csv").write_bytes((two / "metrics.csv").read_bytes())
        capsys.readouterr()
        rc = main(["train", "--config", write_cfg(tmp_path, **FAST_LEARNER), "--episodes", "1",
                   "--seed", "2", "--out", str(out), "--resume", str(out / "checkpoint.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "metrics.csv") in err
        assert (out / "checkpoint.json").read_bytes() == checkpoint

    def test_corrupted_checkpoint_detected(self, tmp_path):
        cfg_env = EnvConfig()
        hyper = Hyperparams(lstm_hidden=4, actor_hidden=(8, 8), critic_hidden=(8, 8))
        nets = build_nets(cfg_env, hyper, seed=0)
        path = tmp_path / "ck.json"
        save_checkpoint(path, nets, hyper, "hash", 0, 3)
        blob = json.loads(path.read_text())
        blob["payload"]["agents"][0]["actor"][0] += 1.0
        path.write_text(json.dumps(blob))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path, cfg_env, hyper, seed=0)

    def test_checkpoint_roundtrip(self, tmp_path):
        import numpy as np

        cfg_env = EnvConfig()
        hyper = Hyperparams(lstm_hidden=4, actor_hidden=(8, 8), critic_hidden=(8, 8))
        nets = build_nets(cfg_env, hyper, seed=0)
        path = tmp_path / "ck.json"
        save_checkpoint(path, nets, hyper, "h", 0, 7)
        restored, episode = load_checkpoint(path, cfg_env, hyper, seed=1)
        assert episode == 7
        np.testing.assert_array_equal(
            restored.actor.lstm.Wx.data[2], nets.actor.lstm.Wx.data[2]
        )

    def test_save_holds_no_whole_payload_in_memory(self, tmp_path):
        hyper = Hyperparams()
        nets = build_nets(EnvConfig(), hyper, seed=0)
        path = tmp_path / "ck.json"
        tracemalloc.start()
        try:
            save_checkpoint(path, nets, hyper, "h", 0, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2

    def test_fresh_checkpoint_loads_without_re_rendering(self, tmp_path, monkeypatch):
        import numpy as np

        cfg_env = EnvConfig()
        hyper = Hyperparams(lstm_hidden=4, actor_hidden=(8, 8), critic_hidden=(8, 8))
        nets = build_nets(cfg_env, hyper, seed=0)
        path = tmp_path / "ck.json"
        save_checkpoint(path, nets, hyper, "h", 0, 5)

        def no_render(payload):
            raise AssertionError("a canonical checkpoint was re-rendered")

        monkeypatch.setattr(reporting, "_payload_checksum", no_render)
        restored, episode = load_checkpoint(path, cfg_env, hyper, seed=1)
        assert episode == 5
        for p, q in zip(restored.critic.params(), nets.critic.params()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_one_changed_digit_in_a_canonical_checkpoint_exits_1(self, tmp_path, capsys):
        out = tmp_path / "tr"
        cfg = write_cfg(tmp_path, **FAST_LEARNER)
        assert main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        ck = out / "checkpoint.json"
        text = ck.read_text()
        at = text.index('"critic":[') + 20
        while not text[at].isdigit():
            at += 1
        ck.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])
        json.loads(ck.read_text())  # still well-formed, only the checksum tells
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--episodes", "1", "--seed", "2",
                   "--out", str(out), "--resume", str(ck)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "integrity check" in err

    def test_interrupted_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        hyper = Hyperparams(lstm_hidden=4, actor_hidden=(8, 8), critic_hidden=(8, 8))
        nets = build_nets(EnvConfig(), hyper, seed=0)
        path = tmp_path / "ck.json"
        save_checkpoint(path, nets, hyper, "h", 0, 5)
        before = path.read_bytes()
        render = reporting._render

        def render_then_fail(value):
            pieces = render(value)
            yield next(pieces)
            raise KeyboardInterrupt

        monkeypatch.setattr(reporting, "_render", render_then_fail)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, nets, hyper, "h", 0, 9)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]

    def test_train_leaves_no_temporary_file(self, tmp_path):
        out = tmp_path / "tr"
        assert main(["train", "--config", write_cfg(tmp_path, **FAST_LEARNER),
                     "--episodes", "1", "--seed", "2", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.json", "manifest.json", "metrics.csv"]

    def test_spaced_envelope_format_still_loads(self, tmp_path):
        """Checkpoints written as json.dumps(envelope, sort_keys=True), with
        default separators, verify and restore like compact ones."""
        import numpy as np

        cfg_env = EnvConfig()
        hyper = Hyperparams(lstm_hidden=4, actor_hidden=(8, 8), critic_hidden=(8, 8))
        nets = build_nets(cfg_env, hyper, seed=0)
        path = tmp_path / "ck.json"
        save_checkpoint(path, nets, hyper, "h", 0, 5)
        compact = path.read_bytes()
        envelope = json.loads(compact)
        path.write_text(json.dumps(envelope, sort_keys=True))
        assert path.read_bytes() != compact
        restored, episode = load_checkpoint(path, cfg_env, hyper, seed=1)
        assert episode == 5
        for p, q in zip(restored.actor.params() + restored.critic.params(),
                        nets.actor.params() + nets.critic.params()):
            np.testing.assert_array_equal(p.data, q.data)


class TestExport:
    def test_tidy_row_count(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--episodes", "2", "--seed", "1", "--out", str(out)])
        rc = main(["export", "--input", str(out / "trajectory.jsonl"),
                   "--out", str(out), "--format", "csv"])
        assert rc == 0
        lines = (out / "tidy.csv").read_text().strip().splitlines()
        # episodes x metrics x (agents + 1) + header
        assert len(lines) == 1 + 2 * 4 * 5

    def test_export_from_metrics_csv(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--episodes", "1", "--seed", "1", "--out", str(out)])
        rc = main(["export", "--input", str(out / "metrics.csv"),
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        payload = json.loads((out / "tidy.json").read_text())
        assert len(payload) == 4 * 5

    def test_empty_trajectory_header_only(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        rc = main(["export", "--input", str(src), "--out", str(tmp_path),
                   "--format", "csv"])
        assert rc == 0
        assert (tmp_path / "tidy.csv").read_text() == "episode,metric,agent,value\n"

    def test_unknown_format_exit_1(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        rc = main(["export", "--input", str(src), "--out", str(tmp_path),
                   "--format", "parquet"])
        assert rc == 1

    def test_export_tidy_unknown_format_raises(self):
        with pytest.raises(UnknownFormat):
            export_tidy([], "xml")

    @staticmethod
    def exports_of_both_files(tmp_path, argv):
        """The tidy CSV `export` makes from each file of one `simulate` run."""
        sim = tmp_path / "sim"
        assert main(["simulate", *argv, "--episodes", "2", "--seed", "4", "--out", str(sim)]) == 0
        tidy = {}
        for name in ("trajectory.jsonl", "metrics.csv"):
            out = tmp_path / name
            out.mkdir()
            assert main(["export", "--input", str(sim / name), "--out", str(out)]) == 0
            tidy[name] = (out / "tidy.csv").read_bytes()
        return tidy

    def test_trajectory_and_metrics_exports_identical(self, tmp_path):
        tidy = self.exports_of_both_files(tmp_path, [])
        assert tidy["trajectory.jsonl"] == tidy["metrics.csv"]

    def test_fleet64_trajectory_and_metrics_exports_identical(self, tmp_path):
        raw = default_config_dict()
        raw["fleet"] = [raw["fleet"][i % 4] for i in range(64)]
        raw["market_factor"] = {"lower": -480.0, "upper": -320.0}
        tidy = self.exports_of_both_files(tmp_path, ["--config", write_cfg(tmp_path, **raw)])
        assert tidy["trajectory.jsonl"] == tidy["metrics.csv"]
        assert tidy["metrics.csv"].count(b"\n") == 1 + 2 * 4 * 65


class TestMalformedExportInput:
    @pytest.fixture
    def sim(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--episodes", "1", "--seed", "1", "--out", str(out)]) == 0
        return out

    def export_rc(self, path, capsys):
        rc = main(["export", "--input", str(path), "--out", str(path.parent)])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        return rc

    def test_truncated_trajectory_line(self, sim, capsys):
        path = sim / "trajectory.jsonl"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert self.export_rc(path, capsys) == 1

    def test_non_numeric_metrics_cell(self, sim, capsys):
        path = sim / "metrics.csv"
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[1] = "n/a"
        path.write_text(header + "\n" + ",".join(cells) + "\n")
        assert self.export_rc(path, capsys) == 1

    @pytest.mark.parametrize("cut", [
        lambda header: header[:2],   # episode and reward only
        lambda header: header[:-1],  # the last agent's group is partial
    ], ids=["metric-columns-missing", "partial-agent-group"])
    def test_not_a_metrics_table(self, sim, cut, capsys):
        path = sim / "metrics.csv"
        lines = [line.split(",") for line in path.read_text().splitlines()]
        n = len(cut(lines[0]))
        path.write_text("".join(",".join(cells[:n]) + "\n" for cells in lines))
        assert self.export_rc(path, capsys) == 1

    def test_row_layout_record(self, sim, capsys):
        # the layout before fleet columns: one dict per agent, one list per action
        path = sim / "trajectory.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for r in records:
            r["settlements"] = [dict(zip(r["settlements"], row))
                                for row in zip(*r["settlements"].values())]
            r["actions"] = [list(row) for row in zip(*r["actions"].values())]
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        assert main(["export", "--input", str(path), "--out", str(sim)]) == 1
        assert capsys.readouterr().err.startswith(f"error: malformed trajectory file {path}")

    def test_record_without_rewards(self, sim, capsys):
        path = sim / "trajectory.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        del records[3]["rewards"]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert self.export_rc(path, capsys) == 1


class TestUnreadableInput:
    """An input file that cannot be read exits 1 with `error: <path>`."""

    @pytest.mark.parametrize("site", ["profile-csv", "price-csv", "resume-checkpoint",
                                      "export-input-directory"])
    def test_exit_1_naming_the_path(self, site, tmp_path, capsys):
        out = str(tmp_path / "o")
        if site == "profile-csv":
            path = tmp_path / "missing_profile.csv"
            argv = ["simulate", "--config", write_cfg(tmp_path, profiles=[path.name] * 4),
                    "--episodes", "1", "--out", out]
        elif site == "price-csv":
            path = tmp_path / "missing_prices.csv"
            argv = ["simulate", "--config", write_cfg(tmp_path, prices=path.name),
                    "--episodes", "1", "--out", out]
        elif site == "resume-checkpoint":
            path = tmp_path / "missing_checkpoint.json"
            argv = ["train", "--config", write_cfg(tmp_path, **FAST_LEARNER),
                    "--episodes", "1", "--out", out, "--resume", str(path)]
        else:
            path = tmp_path / "a_directory"
            path.mkdir()
            argv = ["export", "--input", str(path), "--out", out]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("site", ["config", "profile-csv", "resume-checkpoint",
                                      "export-metrics-csv"])
    def test_bytes_that_are_not_text_exit_1(self, site, tmp_path, capsys):
        path = tmp_path / ("binary.yaml" if site == "config" else "binary.csv")
        path.write_bytes(b"\xff\xfe\x00\x81 not utf-8\n")
        out = str(tmp_path / "o")
        if site == "config":
            argv = ["simulate", "--config", str(path), "--out", out]
        elif site == "profile-csv":
            argv = ["simulate", "--config", write_cfg(tmp_path, profiles=[path.name] * 4),
                    "--out", out]
        elif site == "resume-checkpoint":
            argv = ["train", "--config", write_cfg(tmp_path, **FAST_LEARNER),
                    "--episodes", "1", "--out", out, "--resume", str(path)]
        else:
            argv = ["export", "--input", str(path), "--out", out]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and str(path) in err


class TestUnwritableOut:
    """An output path that cannot be created or written exits 1 with `error: <path>`."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "a_file"
        path.write_text("not a directory\n")
        return path

    def rc_and_err(self, argv, path, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        return rc

    @pytest.mark.parametrize("command", ["simulate", "compare", "train"])
    def test_out_under_a_file(self, command, blocker, capsys):
        out = blocker / "x"
        argv = [command, "--episodes", "1", "--seed", "1", "--out", str(out)]
        assert self.rc_and_err(argv, out, capsys) == 1

    def test_export_out_in_missing_directory(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--episodes", "1", "--seed", "1", "--out", str(sim)]) == 0
        capsys.readouterr()
        out = tmp_path / "nodir" / "sub" / "x.csv"
        argv = ["export", "--input", str(sim / "trajectory.jsonl"), "--out", str(out)]
        assert self.rc_and_err(argv, out, capsys) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_trajectory_write_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "trajectory.jsonl"
        path.symlink_to("/dev/full")
        argv = ["simulate", "--episodes", "1", "--seed", "1", "--out", str(out)]
        assert self.rc_and_err(argv, path, capsys) == 1


def fleet_with(agent, **entry):
    """The reference fleet config with `entry` overriding one microgrid's values."""
    fleet = default_config_dict()["fleet"]
    fleet[agent] = {**fleet[agent], **entry}
    return fleet


class TestMalformedConfigValues:
    """A config value of the wrong type or range exits 2 with `config error:`."""

    @pytest.mark.parametrize("command,raw", [
        ("simulate", {"margin": "abc"}),
        ("simulate", {"margin": 2.0}),
        ("simulate", {"mrda": {"rounds": "x"}}),
        ("simulate", {"noise": {"obs_sigma": "abc"}}),
        ("simulate", {"market_factor": {"lower": "x"}}),
        ("simulate", {"window": {"past": "x"}}),
        ("simulate", {"disruption": 5}),
        ("simulate", {"seed": True}),
        ("simulate", {"episodes": True}),
        ("train", {"learner": {"optimizer": "rmsprop"}}),
        ("simulate", {"profiles": 5}),
        ("simulate", {"prices": 5}),
        ("simulate", {"window": {"past": 1.5}}),
        ("simulate", {"mrda": {"rounds": 2.7}}),
        ("simulate", {"carry_over_soc": "no"}),
        ("simulate", {"disruption": {"use_reported": "no"}}),
        ("train", {"learner": {"minibatch_size": 1}}),
        ("simulate", {"window": {"past": 10**30}, "episodes": 1}),
        ("simulate", {"window": {"future": 10**30}, "episodes": 1}),
        ("simulate", {"window": {"future": 24}, "episodes": 1}),
        ("simulate", {"fleet": fleet_with(1, beta=float("inf")), "episodes": 1}),
        ("simulate", {"fleet": fleet_with(0, l_max=float("nan")), "episodes": 1}),
        ("simulate", {"fleet": fleet_with(2, t_charge_max=float("inf")), "episodes": 1}),
        ("simulate", {"fleet": fleet_with(3, g_max=float("inf")), "episodes": 1}),
        ("simulate", {"noise": {"process_sigma": float("nan")}, "episodes": 1}),
        ("simulate", {"noise": {"obs_sigma": float("inf")}, "episodes": 1}),
        ("simulate", {"disruption": {"ramp_floor": 3.0, "p_gradual": 0.5}, "episodes": 1}),
        ("simulate", {"disruption": {"ramp_floor": -1.0, "p_gradual": 0.5}, "episodes": 1}),
        ("simulate", {"disruption": {"ramp_hours": 2.5}, "episodes": 1}),
        ("simulate", {"disruption": {"failure_hours": 2.5}, "episodes": 1}),
        # a quoted number, a bool or a whole number written as a float is not a number here
        ("simulate", {"market_factor": {"lower": "-30"}}),
        ("simulate", {"market_factor": {"upper": True}}),
        ("simulate", {"margin": True}),
        ("simulate", {"margin": "0.1"}),
        ("simulate", {"fleet": fleet_with(0, beta=True)}),
        ("simulate", {"fleet": fleet_with(0, e0=True)}),
        ("simulate", {"noise": {"obs_sigma": "5e-2"}}),  # how PyYAML reads 5e-2
        ("simulate", {"noise": {"obs_sigma": "0.2"}}),
        ("simulate", {"noise": {"process_sigma": True}}),
        ("simulate", {"window": {"past": 3.0}}),
        ("simulate", {"window": {"past": "3"}}),
        ("simulate", {"mrda": {"rounds": "2"}}),
        ("simulate", {"mrda": {"concession": "0.5"}}),
        ("simulate", {"disruption": {"p_sudden": True}}),
        ("simulate", {"disruption": {"ramp_hours": "2"}}),
        ("simulate", {"disruption": {"failure_hours": 24.0}}),
        ("simulate", {"disruption": {"ramp_floor": True, "p_gradual": 0.5}}),
        ("simulate", {"disruption": {"drop_hi": True}}),
        ("simulate", {"prices": {"feed_in": "0.2", "emergency_flat": 2.0}}),
        ("simulate", {"prices": {"emergency_flat": "2.0"}}),
        ("simulate", {"prices": {"emergency": ["2.0"] * 24}}),
        ("simulate", {"prices": {"emergency": [True] * 24, "feed_in": 0.2, "day_ahead": 0.5}}),
        # a misspelt key is an error, not a default
        ("simulate", {"noise": {"obs_sgima": 0.9}}),
        ("simulate", {"window": {"pats": 2}}),
        ("simulate", {"mrda": {"round": 2}}),
        ("simulate", {"market_factor": {"lowr": -40.0}}),
        ("simulate", {"prices": {"feedin": 0.3, "emergency_flat": 2.0}}),
    ], ids=["margin-abc", "margin-2.0", "mrda-rounds-x", "obs-sigma-abc", "mf-lower-x",
            "window-past-x", "disruption-5", "seed-true", "episodes-true", "optimizer-rmsprop",
            "profiles-5", "prices-5", "window-past-1.5", "mrda-rounds-2.7", "carry-over-soc-no",
            "use-reported-no", "minibatch-size-1", "window-past-1e30", "window-future-1e30",
            "window-future-24", "beta-inf", "l-max-nan", "t-charge-max-inf", "g-max-inf",
            "process-sigma-nan", "obs-sigma-inf", "ramp-floor-3", "ramp-floor-negative",
            "ramp-hours-2.5", "failure-hours-2.5", "mf-lower-quoted", "mf-upper-true",
            "margin-true", "margin-quoted", "beta-true", "e0-true", "obs-sigma-5e-2",
            "obs-sigma-quoted", "process-sigma-true", "window-past-3.0", "window-past-quoted",
            "mrda-rounds-quoted", "mrda-concession-quoted", "p-sudden-true", "ramp-hours-quoted",
            "failure-hours-24.0", "ramp-floor-true", "drop-hi-true", "feed-in-quoted",
            "emergency-flat-quoted", "emergency-hour-quoted", "emergency-hour-true",
            "noise-misspelt", "window-misspelt", "mrda-misspelt", "market-factor-misspelt",
            "prices-misspelt"])
    def test_exit_code_2(self, command, raw, tmp_path, capsys):
        argv = [command, "--config", write_cfg(tmp_path, **raw), "--out", str(tmp_path / "o")]
        if "episodes" not in raw:
            argv += ["--episodes", "0"]
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        # the message names the key: the section and, in a mapping, the key within it
        section, value = next(iter(raw.items()))
        assert section in err
        if isinstance(value, dict):
            assert next(iter(value)) in err

    @pytest.mark.parametrize("learner", [
        {"lstm_hidden": 0},
        {"actor_hidden": [0, 8]},
        {"critic_hidden": [8]},
        {"action_bias": [1, 2]},
        {"minibatch_size": 2.5},
        {"lr_actor": float("nan")},
        {"lr_actor": -1},
        {"reward_scale": float("nan")},
        {"log_std_init": float("inf")},
        {"episodes_per_update": 2.5},
        {"lstm_hidden": 10**30},
        {"actor_hidden": [8, 10**30]},
        {"critic_hidden": [10**30, 8]},
    ], ids=["lstm-hidden-0", "actor-hidden-0", "critic-hidden-one-layer", "action-bias-2",
            "minibatch-size-2.5", "lr-actor-nan", "lr-actor-negative", "reward-scale-nan",
            "log-std-init-inf", "episodes-per-update-2.5", "lstm-hidden-1e30",
            "actor-hidden-1e30", "critic-hidden-1e30"])
    def test_bad_learner_value_exit_code_2(self, learner, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["train", "--config", write_cfg(tmp_path, learner=learner),
                   "--episodes", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: learner: ")
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.parametrize("value", ["a: [", "\udcff"], ids=["unclosed-flow", "non-utf8"])
    def test_env_var_that_is_not_yaml_exit_code_2(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRIDTRADE_SEED", value)
        rc = main(["simulate", "--episodes", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: GRIDTRADE_SEED ")
