"""Run configuration: one INI file with a section per pipeline stage.

Every key has a default, so an empty (or absent) file is a valid
configuration. Unknown sections or keys are rejected rather than ignored;
``--set section.key=value`` overrides take precedence over the file, and
the output directory can additionally come from the ``EDANAV_OUTPUT_DIR``
environment variable (flag > environment > file > default).

Each key parses as the type of its default. A default or bound the
library states is taken from it: the dataclass sections from their
dataclasses, the other keys from the keyword defaults of `synth_cohort`,
`train_surrogate`, `evaluate_sessions` and `optimize`, and the bounds from
`check_search_settings`, `check_cohort_settings`, `check_integral_clamp`
and `check_train_settings`. `RunConfig` carries each call's keyword
arguments as whole groups, so the CLI passes them on with ``**``.
"""

from __future__ import annotations

import configparser
import inspect
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .control import GAIN_KEYS, AccelLimits, check_integral_clamp
from .dataset import check_cohort_settings, synth_cohort
from .errors import ConfigError
from .optimize import GainRanges, check_search_settings, evaluate_sessions, optimize
from .pipeline import check_train_settings, train_surrogate
from .scr import METHODS, DetectorParams, default_detectors
from .signals import DecompositionConfig
from .surrogate import OracleParams

ENV_OUTPUT_DIR = "EDANAV_OUTPUT_DIR"


def _defaults(obj, *skip: str) -> dict[str, object]:
    """The dataclass ``obj``'s field values by name, less ``skip``."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


def _keyword_defaults(fn, *names: str) -> dict[str, object]:
    """The defaults of ``fn``'s keywords ``names`` (all of them if none are named)."""
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in names or params}


# the keys each detector reads besides the shared amplitude and rise-time band
_DETECTOR_OWN_KEYS = {"gamboa2008": "min_separation_s", "neurokit": "prominence_frac"}


def _detector_keys(params: DetectorParams) -> dict[str, object]:
    unread = set(_DETECTOR_OWN_KEYS.values()) - {_DETECTOR_OWN_KEYS.get(params.method)}
    return _defaults(params, "method", *unread)


# the optimizer keys `check_search_settings` bounds, besides budget and mode
_SEARCH_KEYS = ("explore_frac", "sigma_scale", "halve_after")

_DEFAULT_BOX = _keyword_defaults(optimize, "ranges")["ranges"]

# section -> key -> default; the one None default, stride_samples, parses
# as an int or as nothing (an empty value)
_SCHEMA: dict[str, dict[str, object]] = {
    "run": {
        **_keyword_defaults(synth_cohort, "seed"),
        "output_dir": "out",
        # accepted and validated (>= 1) for existing configs; has no effect
        **_keyword_defaults(optimize, "workers"),
    },
    "dataset": {
        "dir": "",
        "n_sessions": 40, "duration_s": 240.0, "rate_hz": 4.0,
        **_keyword_defaults(synth_cohort, "train_frac"),
    },
    "oracle": _defaults(OracleParams(), "seed"),
    "decomposition": _defaults(DecompositionConfig()),
    "surrogate": _keyword_defaults(train_surrogate, "clip_len_s", "stride_samples",
                                   "ridge_lambda"),
    "control": {**_keyword_defaults(evaluate_sessions, "integral_clamp"),
                **_defaults(AccelLimits())},
    **{f"detector.{d.method}": _detector_keys(d) for d in default_detectors()},
    "optimizer": {
        "budget": 400,
        **_keyword_defaults(optimize, "seed", "mode", *_SEARCH_KEYS),
        # one bound per gain and end (lo_K_Pl = ..., hi_beta_r = ...)
        **{f"{end}_{key}": float(getattr(_DEFAULT_BOX, end)[i])
           for i, key in enumerate(GAIN_KEYS) for end in ("lo", "hi")},
    },
    "report": {"svg": True},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for every pipeline command.

    ``synth`` and ``train`` are the keyword arguments of `synth_cohort` and
    `train_surrogate`, each call's inputs aside. ``replay`` (detectors,
    mode, limits, integral_clamp, decomposition) is the whole keyword group
    of `evaluate_sessions`; `optimize` takes it and ``search``, the rest of
    its keywords.
    """

    output_dir: Path
    dataset_dir: Path
    svg: bool
    synth: dict[str, object]
    train: dict[str, object]
    replay: dict[str, object]
    search: dict[str, object]

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
    default = _SCHEMA[section][key]
    if default is None and not raw.strip():
        return None
    kind = int if default is None else type(default)
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from None


def _read_file(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), inline_comment_prefixes=(";", "#")
    )
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
        section, dot, key = head.rpartition(".")  # detector sections hold a dot
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
            for key, default in keys.items()
        }

    run, o = values["run"], values["optimizer"]
    output_dir = run["output_dir"]
    if output_dir_flag is not None:
        output_dir = output_dir_flag
    elif os.environ.get(ENV_OUTPUT_DIR):
        output_dir = os.environ[ENV_OUTPUT_DIR]
    output_dir = Path(output_dir)
    dataset = dict(values["dataset"])
    dataset_dir = dataset.pop("dir")
    dataset_dir = Path(dataset_dir) if dataset_dir else output_dir / "dataset"
    search = {key: o[key] for key in ("budget", *_SEARCH_KEYS)}
    control = dict(values["control"])
    try:
        check_search_settings(**search, mode=o["mode"], workers=run["workers"])
        check_cohort_settings(**dataset)
        check_integral_clamp(control["integral_clamp"])
        check_train_settings(**values["surrogate"])
        ranges = GainRanges(lo=[o[f"lo_{key}"] for key in GAIN_KEYS],
                            hi=[o[f"hi_{key}"] for key in GAIN_KEYS])
        oracle = OracleParams(**values["oracle"])
        decomposition = DecompositionConfig(**values["decomposition"])
        detectors = tuple(
            DetectorParams(method=method, **values[f"detector.{method}"]) for method in METHODS
        )
        integral_clamp = control.pop("integral_clamp")
        limits = AccelLimits(**control)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        output_dir=output_dir,
        dataset_dir=dataset_dir,
        svg=values["report"]["svg"],
        synth={**dataset, "oracle": oracle, "seed": run["seed"]},
        train={**values["surrogate"], "decomposition": decomposition},
        replay={
            "detectors": detectors,
            "mode": o["mode"],
            "limits": limits,
            "integral_clamp": integral_clamp,
            "decomposition": decomposition,
        },
        search={**search, "seed": o["seed"], "ranges": ranges, "workers": run["workers"]},
    )

