"""Run configuration: one INI file with a section per pipeline stage.

Every key has a default, so an empty (or absent) file is a valid
configuration. Unknown sections or keys are rejected rather than ignored;
``--set section.key=value`` overrides take precedence over the file, and
the output directory can additionally come from the ``EDANAV_OUTPUT_DIR``
environment variable (flag > environment > file > default).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .control import DEFAULT_INTEGRAL_CLAMP, GAIN_KEYS, AccelLimits
from .errors import ConfigError
from .optimize import MODES, GainRanges
from .scr import METHODS, DetectorParams, default_detectors
from .signals import DecompositionConfig
from .surrogate import DEFAULT_CLIP_LEN_S, DEFAULT_RIDGE_LAMBDA, OracleParams

ENV_OUTPUT_DIR = "EDANAV_OUTPUT_DIR"


def _defaults(obj, *skip: str) -> dict[str, object]:
    """The dataclass ``obj``'s field values by name, less ``skip``."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


def _floats(defaults: dict[str, object]) -> dict[str, tuple[str, object]]:
    return {key: ("float", value) for key, value in defaults.items()}


def _detector_keys(params: DetectorParams) -> dict[str, tuple[str, object]]:
    """A detector section's keys: prominence_frac is neurokit's alone."""
    skip = () if params.method == "neurokit" else ("prominence_frac",)
    return _floats(_defaults(params, "method", *skip))


# section -> key -> (type tag, default). The tags drive both parsing and
# the unknown-key check; "maybe_int" and "maybe_float" admit an empty value.
# Sections that configure a dataclass take their keys and defaults from it.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {
        "seed": ("int", 0),
        "output_dir": ("str", "out"),
        # accepted and validated (>= 1) for existing configs; has no effect
        "workers": ("int", 1),
    },
    "dataset": {
        "dir": ("str", ""),
        "n_sessions": ("int", 40),
        "duration_s": ("float", 240.0),
        "rate_hz": ("float", 4.0),
        "train_frac": ("float", 0.75),
    },
    "oracle": _floats(_defaults(OracleParams(), "seed")),
    "decomposition": _floats(_defaults(DecompositionConfig())),
    "surrogate": {
        "clip_len_s": ("float", DEFAULT_CLIP_LEN_S),
        "stride_samples": ("maybe_int", None),
        "ridge_lambda": ("float", DEFAULT_RIDGE_LAMBDA),
    },
    "control": {
        "integral_clamp": ("float", DEFAULT_INTEGRAL_CLAMP),
        **_floats(_defaults(AccelLimits())),
    },
    **{
        f"detector.{d.method}": _detector_keys(d) for d in default_detectors()
    },
    "optimizer": {
        "budget": ("int", 400),
        "seed": ("int", 0),
        "mode": ("str", "offline"),
        "explore_frac": ("float", 0.6),
        "sigma_scale": ("float", 0.2),
        "halve_after": ("int", 10),
        "k_lo": ("float", 0.0),
        "k_hi": ("float", 0.5),
        "beta_lo": ("float", 0.0),
        "beta_hi": ("float", 0.01),
        # optional per-gain bracket overrides (lo_K_Pl = ..., hi_beta_r = ...)
        **{f"{end}_{key}": ("maybe_float", None) for key in GAIN_KEYS for end in ("lo", "hi")},
    },
    "report": {
        "svg": ("bool", True),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs for every pipeline command."""

    seed: int
    output_dir: Path
    workers: int
    dataset_dir: Path
    n_sessions: int
    duration_s: float
    rate_hz: float
    train_frac: float
    oracle: OracleParams
    decomposition: DecompositionConfig
    clip_len_s: float
    stride_samples: int | None
    ridge_lambda: float
    limits: AccelLimits
    integral_clamp: float
    detectors: tuple[DetectorParams, ...]
    budget: int
    optimizer_seed: int
    mode: str
    explore_frac: float
    sigma_scale: float
    halve_after: int
    ranges: GainRanges
    svg: bool

    # conventional artifact locations inside output_dir
    @property
    def model_path(self) -> Path:
        return self.output_dir / "model.csv"

    @property
    def gains_path(self) -> Path:
        return self.output_dir / "gains.txt"

    @property
    def history_path(self) -> Path:
        return self.output_dir / "history.csv"

    @property
    def report_path(self) -> Path:
        return self.output_dir / "report.csv"

    @property
    def per_session_path(self) -> Path:
        return self.output_dir / "per_session.csv"

    @property
    def svg_path(self) -> Path:
        return self.output_dir / "msdv.svg"


def _parse_value(section: str, key: str, raw: str):
    tag = _SCHEMA[section][key][0]
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if tag == "maybe_int":
            return int(raw) if raw.strip() else None
        if tag == "maybe_float":
            return float(raw) if raw.strip() else None
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {tag}") from None


def _read_file(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # gain names such as hi_K_Il are case-sensitive
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            out.setdefault(section, {})[key] = value
    return out


def _apply_overrides(raw: dict[str, dict[str, str]], overrides) -> None:
    for item in overrides:
        head, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, dot, key = head.partition(".")
        if not dot or section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"override targets unknown key {head!r}")
        raw.setdefault(section, {})[key] = value


def load_config(path=None, overrides=(), output_dir_flag=None) -> RunConfig:
    """Assemble and validate a RunConfig.

    ``path`` is optional (defaults apply); ``overrides`` are
    ``section.key=value`` strings. Raises ConfigError on any unknown name,
    parse failure, or out-of-bounds value.
    """
    raw = _read_file(Path(path)) if path is not None else {}
    _apply_overrides(raw, overrides)

    values: dict[str, dict[str, object]] = {}
    for section, keys in _SCHEMA.items():
        given = raw.get(section, {})
        values[section] = {
            key: _parse_value(section, key, given[key]) if key in given else default
            for key, (_tag, default) in keys.items()
        }

    output_dir = values["run"]["output_dir"]
    if output_dir_flag is not None:
        output_dir = output_dir_flag
    elif os.environ.get(ENV_OUTPUT_DIR):
        output_dir = os.environ[ENV_OUTPUT_DIR]
    output_dir = Path(output_dir)

    dataset_dir = values["dataset"]["dir"]
    dataset_dir = Path(dataset_dir) if dataset_dir else output_dir / "dataset"

    mode = values["optimizer"]["mode"]
    if mode not in MODES:
        raise ConfigError(f"[optimizer] mode must be one of {MODES}, got {mode!r}")
    o = values["optimizer"]
    try:
        oracle = OracleParams(**values["oracle"])
        decomposition = DecompositionConfig(**values["decomposition"])
        control = dict(values["control"])
        integral_clamp = control.pop("integral_clamp")
        limits = AccelLimits(**control)
        detectors = tuple(
            DetectorParams(method=method, **values[f"detector.{method}"]) for method in METHODS
        )
        k_lo, k_hi = o["k_lo"], o["k_hi"]
        beta_lo, beta_hi = o["beta_lo"], o["beta_hi"]
        lo = np.array([k_lo] * 9 + [beta_lo] * 2)
        hi = np.array([k_hi] * 9 + [beta_hi] * 2)
        for i, key in enumerate(GAIN_KEYS):
            if o[f"lo_{key}"] is not None:
                lo[i] = o[f"lo_{key}"]
            if o[f"hi_{key}"] is not None:
                hi[i] = o[f"hi_{key}"]
        ranges = GainRanges(lo=lo, hi=hi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    cfg = RunConfig(
        seed=values["run"]["seed"],
        output_dir=output_dir,
        workers=values["run"]["workers"],
        dataset_dir=dataset_dir,
        n_sessions=values["dataset"]["n_sessions"],
        duration_s=values["dataset"]["duration_s"],
        rate_hz=values["dataset"]["rate_hz"],
        train_frac=values["dataset"]["train_frac"],
        oracle=oracle,
        decomposition=decomposition,
        clip_len_s=values["surrogate"]["clip_len_s"],
        stride_samples=values["surrogate"]["stride_samples"],
        ridge_lambda=values["surrogate"]["ridge_lambda"],
        limits=limits,
        integral_clamp=integral_clamp,
        detectors=detectors,
        budget=o["budget"],
        optimizer_seed=o["seed"],
        mode=mode,
        explore_frac=o["explore_frac"],
        sigma_scale=o["sigma_scale"],
        halve_after=o["halve_after"],
        ranges=ranges,
        svg=values["report"]["svg"],
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    checks = [
        (cfg.n_sessions >= 1, "[dataset] n_sessions must be >= 1"),
        (cfg.duration_s > 0, "[dataset] duration_s must be positive"),
        (cfg.rate_hz > 0, "[dataset] rate_hz must be positive"),
        (0.0 <= cfg.train_frac <= 1.0, "[dataset] train_frac must be in [0, 1]"),
        (cfg.clip_len_s > 0, "[surrogate] clip_len_s must be positive"),
        (
            cfg.stride_samples is None or cfg.stride_samples >= 1,
            "[surrogate] stride_samples must be >= 1 when set",
        ),
        (cfg.ridge_lambda >= 0, "[surrogate] ridge_lambda must be >= 0"),
        (cfg.integral_clamp > 0, "[control] integral_clamp must be positive"),
        (cfg.budget >= 1, "[optimizer] budget must be >= 1"),
        (0.0 < cfg.explore_frac <= 1.0, "[optimizer] explore_frac must be in (0, 1]"),
        (cfg.sigma_scale > 0, "[optimizer] sigma_scale must be positive"),
        (cfg.halve_after >= 1, "[optimizer] halve_after must be >= 1"),
        (cfg.workers >= 1, "[run] workers must be >= 1"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
