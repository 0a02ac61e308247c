"""Config loading, validation, overrides, and hashing."""

from pathlib import Path

import pytest
import yaml

from gridtrade.config import (
    apply_env_overrides,
    config_from_dict,
    config_hash,
    default_config_dict,
    load_config,
)
from gridtrade.errors import ConfigInvalid, IoError


class TestDefaults:
    def test_default_dict_parses(self):
        cfg = config_from_dict({})
        assert cfg.env.n_agents == 4
        assert cfg.env.mechanism == "jpq"
        assert cfg.learner.gamma == 0.95
        assert cfg.policy == "net-position"

    def test_reference_fleet_parameters(self):
        cfg = config_from_dict({})
        assert [p.e_max for p in cfg.env.fleet] == [8, 15, 15, 30]

    def test_hash_stable_and_order_independent(self):
        a = config_hash({"x": 1, "y": {"z": 2}})
        b = config_hash({"y": {"z": 2}, "x": 1})
        assert a == b and len(a) == 64


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigInvalid, match="unknown config keys"):
            config_from_dict({"mechansim": "jpq"})

    def test_unknown_mechanism_names_field(self):
        with pytest.raises(ConfigInvalid, match="mechanism"):
            config_from_dict({"mechanism": "vcg"})

    def test_unknown_policy(self):
        with pytest.raises(ConfigInvalid, match="policy"):
            config_from_dict({"policy": "alpha-zero"})

    def test_bad_fleet_parameter(self):
        fleet = default_config_dict()["fleet"]
        fleet[0]["e0"] = 99
        with pytest.raises(ConfigInvalid, match="fleet"):
            config_from_dict({"fleet": fleet})

    def test_bad_price_hierarchy(self):
        with pytest.raises(ConfigInvalid, match="prices"):
            config_from_dict({"prices": {"feed_in": 5.0, "emergency_flat": 2.0}})

    def test_bad_learner_key(self):
        with pytest.raises(ConfigInvalid, match="learner"):
            config_from_dict({"learner": {"gamma": 1.5}})

    def test_bad_seed(self):
        with pytest.raises(ConfigInvalid, match="seed"):
            config_from_dict({"seed": -1})

    def test_disruption_reported_flag(self):
        cfg = config_from_dict({"disruption": {"use_reported": True}})
        assert cfg.env.disruption.p_sudden == 0.85


class TestFileLoading:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"seed": 42, "mechanism": "greedy"}))
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.env.mechanism == "greedy"

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_config(tmp_path / "nope.yaml")

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("seed: [1\n")
        with pytest.raises(ConfigInvalid, match="not valid YAML"):
            load_config(path)

    @pytest.mark.parametrize("name", ["reference.yaml", "deficit_biased.yaml"])
    def test_bundled_configs_parse_as_with_the_python_loader(self, name):
        path = Path(__file__).resolve().parents[1] / "configs" / name
        reference = config_from_dict(yaml.safe_load(path.read_text()), path.parent)
        assert load_config(path).hash() == reference.hash()

    def test_profile_csv_loading(self, tmp_path):
        for name in ("p0", "p1", "p2", "p3"):
            lines = ["hour,load,pv"]
            lines += [f"{h},{(h % 12) / 11:.3f},{max(0, 1 - abs(h - 12) / 6):.3f}"
                      for h in range(24)]
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({
            "profiles": ["p0.csv", "p1.csv", "p2.csv", "p3.csv"],
        }))
        cfg = load_config(path)
        assert cfg.env.profiles is not None
        assert cfg.env.profiles[0].load.shape == (24,)

    def test_profile_csv_wrong_rows(self, tmp_path):
        (tmp_path / "p.csv").write_text("hour,load,pv\n0,0.5,0.5\n")
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"profiles": ["p.csv"] * 4}))
        with pytest.raises(ConfigInvalid, match="24 rows"):
            load_config(path)

    def test_profile_csv_short_row(self, tmp_path):
        lines = ["hour,load,pv"] + [f"{h},0.5,0.5" for h in range(23)] + ["23,0.5"]
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"profiles": ["p.csv"] * 4}))
        with pytest.raises(ConfigInvalid, match="numeric hour,load,pv columns"):
            load_config(path)

    def test_price_csv_loading(self, tmp_path):
        lines = ["hour,emergency"] + [f"{h},{2.0 + h / 24:.3f}" for h in range(24)]
        (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"prices": "prices.csv"}))
        cfg = load_config(path)
        assert cfg.env.prices.emergency[0] == pytest.approx(2.0)


class TestOverrides:
    def test_env_var_override_scalar(self):
        raw = apply_env_overrides({}, {"GRIDTRADE_SEED": "9"})
        assert raw["seed"] == 9

    def test_env_var_override_nested(self):
        raw = apply_env_overrides(
            {"learner": {"gamma": 0.95}},
            {"GRIDTRADE_LEARNER__GAMMA": "0.9",
             "GRIDTRADE_NOISE__PROCESS_SIGMA": "0.0"},
        )
        assert raw["learner"]["gamma"] == 0.9
        assert raw["noise"]["process_sigma"] == 0.0

    @pytest.mark.parametrize("value", ["a: [", "\udcff"], ids=["unclosed-flow", "non-utf8"])
    def test_env_var_that_is_not_yaml_is_config_invalid(self, value):
        # a non-UTF-8 byte reaches os.environ as a lone surrogate
        with pytest.raises(ConfigInvalid, match="GRIDTRADE_SEED is not valid YAML"):
            apply_env_overrides({}, {"GRIDTRADE_SEED": value})

    def test_env_var_ignored_without_prefix(self):
        raw = apply_env_overrides({}, {"OTHER_SEED": "9"})
        assert "seed" not in raw

    def test_cli_override_wins(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"seed": 1}))
        cfg = load_config(path, environ={"GRIDTRADE_SEED": "2"},
                          overrides={"seed": 3})
        assert cfg.seed == 3

    def test_env_overrides_config_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"seed": 1}))
        cfg = load_config(path, environ={"GRIDTRADE_SEED": "2"})
        assert cfg.seed == 2
