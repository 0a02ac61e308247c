"""CLI command tests: outputs, determinism, error handling, checkpoints."""

import json

import pytest
import yaml

from gridtrade.cli import main
from gridtrade.env import EnvConfig
from gridtrade.errors import ChecksumMismatch, UnknownFormat
from gridtrade.marl.train import Hyperparams, build_nets
from gridtrade.reporting import (
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
            restored[2].actor.lstm.Wx.data, nets[2].actor.lstm.Wx.data
        )

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
        for got, want in zip(restored, nets):
            for p, q in zip(got.actor.params() + got.critic.params(),
                            want.actor.params() + want.critic.params()):
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
            export_tidy([], 0, "xml")
