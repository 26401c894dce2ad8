"""Schema validation and preset integrity."""

import json

import pytest

from distort.config import RunConfig, SCHEMAS, load_config, validate_params
from distort.distortion import distortion_from_dict
from distort.errors import ConfigError
from distort.presets import PRESETS, get_preset, preset_names


def test_every_preset_validates_and_builds():
    for command, table in PRESETS.items():
        for name in table:
            params = get_preset(command, name)
            validate_params(command, params)
            if "distortion" in params:
                distortion_from_dict(params["distortion"])


def test_preset_names_listing():
    assert "example3_3" in preset_names("tree")
    assert "crossing" in preset_names("tree")
    assert "wang" in preset_names("dynamics")
    assert "identity" in preset_names("dynamics")


def test_unknown_preset_lists_alternatives():
    with pytest.raises(ConfigError, match="example3_3"):
        get_preset("tree", "no_such_preset")


def test_presets_are_copies():
    a = get_preset("tree", "example3_3")
    a["payload"][0] = 99.0
    b = get_preset("tree", "example3_3")
    assert b["payload"][0] == 0.0


def test_unknown_top_level_key_rejected():
    params = get_preset("tree", "example3_3")
    params["typo_key"] = 1
    with pytest.raises(ConfigError, match="typo_key"):
        validate_params("tree", params)


def test_nested_unknown_key_rejected_with_path():
    params = get_preset("dynamics", "wang")
    params["phi"]["weird"] = 2
    with pytest.raises(ConfigError, match="phi"):
        validate_params("dynamics", params)


def test_wrong_schema_version_rejected():
    params = get_preset("tree", "example3_3")
    params["schema_version"] = 2
    with pytest.raises(ConfigError):
        validate_params("tree", params)


def test_missing_required_block_rejected():
    with pytest.raises(ConfigError):
        validate_params("dynamics", {"schema_version": 1,
                                     "distortion": {"family": "identity"}})


def test_tree_generator_and_file_forms_both_accepted():
    base = {
        "schema_version": 1,
        "distortion": {"family": "identity"},
    }
    validate_params("tree", dict(base, tree={"N": 3, "T": 1.0}))
    validate_params("tree", dict(base, tree={"file": "somewhere.json"}))
    with pytest.raises(ConfigError):
        validate_params("tree", dict(base, tree={"N": 3}))  # T missing
    with pytest.raises(ConfigError):
        validate_params("tree", dict(base, tree={"N": 3, "T": 1.0, "file": "x"}))


def test_load_config_reports_json_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config("tree", str(p))


def test_load_config_roundtrip(tmp_path):
    params = get_preset("dynamics", "wang")
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(params))
    cfg = load_config("dynamics", str(p))
    assert isinstance(cfg, RunConfig)
    assert cfg.params == params
    assert cfg.seed == 0
    # the echo must re-validate as is
    validate_params("dynamics", cfg.echo())


def test_unknown_command_rejected():
    with pytest.raises(ConfigError, match="unknown command"):
        validate_params("plot", {})
    assert set(SCHEMAS) == {"tree", "dynamics", "density"}


def test_separable_distortion_block_is_rejected_naming_the_family():
    params = {
        "schema_version": 1,
        "distortion": {
            "family": "separable",
            "time_weight": {"kind": "exp", "rate": -0.5, "anchor": 0.0},
            "base": {"family": "power", "gamma": 2.0},
        },
        "tree": {"N": 2, "T": 1.0},
    }
    with pytest.raises(ConfigError, match="tree config invalid at distortion: unknown "
                                          "distortion family 'separable'"):
        validate_params("tree", params)


def test_time_shifted_wang_block_validates():
    params = {
        "schema_version": 1,
        "distortion": {"family": "wang", "alpha": 0.5, "k": 1.5},
        "tree": {"N": 2, "T": 1.0},
    }
    validate_params("tree", params)
    assert distortion_from_dict(params["distortion"]).to_dict() == params["distortion"]
    params["distortion"]["k"] = "fast"
    with pytest.raises(ConfigError, match="invalid at distortion/k"):
        validate_params("tree", params)
