"""Run configuration: JSON schemas, validation, and the RunConfig container.

Every command validates its configuration against a published schema before
any compute starts.  Unknown keys are rejected everywhere so that a typo in
an option name fails loudly instead of silently running defaults.
"""

from dataclasses import dataclass, field

from .distortion import distortion_from_dict
from .errors import ConfigError
from .report import read_json

SCHEMA_VERSION = 1

_NUMBER = {"type": "number"}
_POS_NUMBER = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}

# the distortion block is checked for shape here, and then for its family
# and that family's keys by distortion_from_dict, which knows the families
# and their parameter ranges (so an unknown family is named as such)
_DISTORTION = {
    "type": "object",
    "properties": {"family": {"type": "string"}, "gamma": _NUMBER, "alpha": _NUMBER, "k": _NUMBER},
    "required": ["family"],
}

_MODEL = {
    "type": "object",
    "properties": {"b": _NUMBER, "x0": _NUMBER, "T": _POS_NUMBER},
    "required": ["b", "T"],
    "additionalProperties": False,
}

TREE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "distortion": _DISTORTION,
        "tree": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {
                        "N": _POS_INT,
                        "T": _POS_NUMBER,
                        "p": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "x0": _NUMBER,
                        "step": _POS_NUMBER,
                    },
                    "required": ["N", "T"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {"file": {"type": "string"}},
                    "required": ["file"],
                    "additionalProperties": False,
                },
            ]
        },
        "payload": {"type": "array", "items": _NUMBER, "minItems": 2},
        "compare_naive": {"type": "boolean"},
        "crossing_check": {"type": "boolean"},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["schema_version", "distortion", "tree"],
    "additionalProperties": False,
}

DYNAMICS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "distortion": _DISTORTION,
        "model": _MODEL,
        "mu_grid": {
            "type": "object",
            "properties": {
                "t_min": _POS_NUMBER,
                "t_max": _POS_NUMBER,
                "nt": _POS_INT,
                "x_half": _POS_NUMBER,
                "nx": _POS_INT,
            },
            "additionalProperties": False,
        },
        "phi": {
            "type": "object",
            "properties": {
                "s": _POS_NUMBER,
                "t": _POS_NUMBER,
                "x": _NUMBER,
                "n_points": _POS_INT,
            },
            "required": ["s", "t"],
            "additionalProperties": False,
        },
        "value": {
            "type": "object",
            "properties": {
                "s_min": _POS_NUMBER,
                "payload_center": _NUMBER,
                "payload_width": _POS_NUMBER,
            },
            "additionalProperties": False,
        },
        "mc": {
            "type": "object",
            "properties": {
                "paths": _POS_INT,
                "steps": _POS_INT,
                "probes": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": _NUMBER,
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "minItems": 1,
                },
            },
            "additionalProperties": False,
        },
        "convergence": {
            "type": "object",
            "properties": {
                "N_list": {"type": "array", "items": _POS_INT, "minItems": 1},
                "eval_t": _POS_NUMBER,
                "eval_x": _NUMBER,
            },
            "required": ["N_list", "eval_t", "eval_x"],
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["schema_version", "distortion", "model"],
    "additionalProperties": False,
}

DENSITY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "model": _MODEL,
        "grids": {
            "type": "object",
            "properties": {"nt": _POS_INT, "nx": _POS_INT, "width": _POS_NUMBER},
            "additionalProperties": False,
        },
        "bridge": {
            "type": "object",
            "properties": {
                "t": {"type": "array", "items": _POS_NUMBER, "minItems": 1},
                "x": {"type": "array", "items": _NUMBER, "minItems": 1},
                "paths": _POS_INT,
                "steps": _POS_INT,
            },
            "required": ["t", "x"],
            "additionalProperties": False,
        },
        "compare": {"type": "boolean"},
        "format": {"enum": ["csv", "binary"]},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["schema_version", "model"],
    "additionalProperties": False,
}

SCHEMAS = {"tree": TREE_SCHEMA, "dynamics": DYNAMICS_SCHEMA, "density": DENSITY_SCHEMA}


@dataclass
class RunConfig:
    """A validated configuration for one command invocation."""

    command: str
    params: dict
    seed: int = 0
    out: str = ""
    strict_mon2: bool = False
    source: str = field(default="", compare=False)

    def echo(self):
        """The exact dict that was validated; re-validates by construction."""
        return self.params


def validate_params(command, obj):
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(obj, dict):
        raise ConfigError(f"{command} config must be a JSON object")
    # imported here, its only use: about 75 ms that a program that never
    # validates a config (a library call, the benchmark's warm-ups) skips
    import jsonschema

    validator = jsonschema.Draft202012Validator(SCHEMAS[command])
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        where = "/".join(str(k) for k in best.absolute_path) or "(top level)"
        raise ConfigError(f"{command} config invalid at {where}: {best.message}")
    if "distortion" in obj:
        try:
            distortion_from_dict(obj["distortion"])
        except ConfigError as exc:
            raise ConfigError(f"{command} config invalid at distortion: {exc}") from exc
    return obj


def load_config(command, path):
    """Parse and validate a config file; parse errors carry line and column."""
    obj = read_json(path, "config")
    validate_params(command, obj)
    return RunConfig(command=command, params=obj,
                     seed=int(obj.get("seed", 0)), source=str(path))
