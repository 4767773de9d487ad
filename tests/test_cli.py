"""Pipeline-step and command-line tests: config handling, exit codes, artifacts."""

import inspect
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from edanav import cli
from edanav.cli import main
from edanav.config import _SCHEMA, ENV_OUTPUT_DIR, load_config
from edanav.control import DEFAULT_INTEGRAL_CLAMP, GAIN_KEYS, AccelLimits
from edanav.dataset import SessionRecord, synth_cohort
from edanav.errors import ConfigError
from edanav.optimize import GainRanges, evaluate_sessions, optimize
from edanav.pipeline import eval_split, held_out_mae, train_split, train_surrogate
from edanav.scr import default_detectors
from edanav.signals import DecompositionConfig, Trace, Unit, decompose
from edanav.surrogate import OracleParams, clip_samples, synth_session

from oracles import held_out_mae_naive
from test_acceptance import ACCEL_RANGES

SMALL = [
    "--set", "dataset.n_sessions=8",
    "--set", "dataset.duration_s=120",
    "--set", "optimizer.budget=12",
    "--set", "run.seed=77",
    "--set", "optimizer.seed=5",
]


def _pulse_record(session_id, split, amp, seed):
    n = 120
    rng = np.random.default_rng(seed)
    a_l = np.zeros(n)
    a_r = np.zeros(n)
    for i0 in (20, 60, 95):
        a_l[i0 : i0 + 6] = amp * rng.uniform(0.5, 1.0)
    a_r[40:46] = 0.8
    a_l_tr = Trace(a_l, 4.0, Unit.M_PER_S2)
    a_r_tr = Trace(a_r, 4.0, Unit.RAD_PER_S2)
    eda = synth_session(a_l_tr, a_r_tr, OracleParams(seed=seed))
    return SessionRecord(session_id, a_l_tr, a_r_tr, eda, split)


# ---------------------------------------------------------------------------
# Pipeline steps
# ---------------------------------------------------------------------------

def test_split_helpers():
    records = synth_cohort(4, 120.0, 4.0, seed=1, train_frac=0.5)
    assert [r.session_id for r in train_split(records)] == ["s000", "s001"]
    assert [r.session_id for r in eval_split(records)] == ["s002", "s003"]


def test_normalization_is_frozen_from_the_train_split():
    records = [
        _pulse_record("t0", "train", 2.0, 1),
        _pulse_record("t1", "train", 1.5, 2),
        _pulse_record("e0", "eval", 7.0, 3),  # larger than anything in train
    ]
    model, heldout = train_surrogate(records)
    assert model.norm.a_l.vmax <= 2.0
    assert math.isfinite(heldout)


def test_train_surrogate_split_edge_cases():
    records = synth_cohort(4, 120.0, 4.0, seed=2, train_frac=1.0)
    model, heldout = train_surrogate(records)
    assert math.isnan(heldout)  # nothing held out
    assert math.isnan(held_out_mae(model, []))
    with pytest.raises(ValueError, match="no train sessions"):
        train_surrogate(synth_cohort(2, 120.0, 4.0, seed=3, train_frac=0.0))
    # the bound the config check reports, before any session is decomposed
    with pytest.raises(ValueError, match="ridge_lambda must be >= 0, got -1"):
        train_surrogate(records, ridge_lambda=-1)


@pytest.mark.parametrize("rate_hz", [4.0, 8.0])
@pytest.mark.parametrize("clip_len_s", [2.25, 1.0, 3.1])
def test_held_out_mae_equals_clip_oracle(clip_len_s, rate_hz):
    records = synth_cohort(4, 120.25, rate_hz, seed=11, train_frac=0.5)
    # a second eval length: neither session length is a multiple of L
    records += synth_cohort(2, 97.75, rate_hz, seed=12, train_frac=0.0)
    L = clip_samples(clip_len_s, rate_hz)
    assert all(len(r.a_l) % L for r in records)
    model, heldout = train_surrogate(records, clip_len_s=clip_len_s)
    held = eval_split(records)
    phasics = [decompose(r.eda, DecompositionConfig()).phasic.samples for r in held]
    assert heldout == held_out_mae(model, held) == held_out_mae_naive(model, held, phasics)
    # lengths interleaved: the errors still average in record order
    order = [0, 2, 1, 3]
    mixed = [held[i] for i in order]
    assert held_out_mae(model, mixed) == held_out_mae_naive(model, mixed, [phasics[i] for i in order])


def test_held_out_mae_rejects_another_rate():
    model, _ = train_surrogate(synth_cohort(4, 120.0, 4.0, seed=2, train_frac=0.5))
    with pytest.raises(ValueError, match="does not match model rate"):
        held_out_mae(model, synth_cohort(2, 120.0, 8.0, seed=3, train_frac=0.0))


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_config_defaults(monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    cfg = load_config()
    assert cfg.synth["n_sessions"] == 40
    assert cfg.synth["duration_s"] == 240.0
    assert cfg.synth["rate_hz"] == 4.0
    assert cfg.search["budget"] == 400
    assert str(cfg.output_dir) == "out"
    assert cfg.dataset_dir == cfg.output_dir / "dataset"
    assert cfg.model_path == cfg.output_dir / "model.csv"
    detectors = cfg.replay["detectors"]
    assert tuple(d.method for d in detectors) == ("kim2004", "gamboa2008", "neurokit")
    np.testing.assert_array_equal(cfg.search["ranges"].hi, ACCEL_RANGES.hi)
    assert cfg.train["stride_samples"] is None
    assert cfg.svg is True
    assert cfg.synth["oracle"] == OracleParams()
    assert cfg.train["decomposition"] == DecompositionConfig()
    assert cfg.replay["limits"] == AccelLimits()
    assert cfg.replay["integral_clamp"] == DEFAULT_INTEGRAL_CLAMP
    assert detectors == default_detectors()


def test_config_defaults_are_the_library_defaults(monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    cfg = load_config()
    for fn, kwargs in ((synth_cohort, cfg.synth), (optimize, {**cfg.search, **cfg.replay}),
                       (train_surrogate, cfg.train), (evaluate_sessions, cfg.replay)):
        for name, param in inspect.signature(fn).parameters.items():
            if name == "ranges":  # a GainRanges holds arrays: compare them
                np.testing.assert_array_equal(kwargs[name].lo, param.default.lo)
                np.testing.assert_array_equal(kwargs[name].hi, param.default.hi)
            elif name in kwargs and param.default not in (inspect.Parameter.empty, None):
                assert kwargs[name] == param.default, (fn.__name__, name)
    box = GainRanges()
    np.testing.assert_array_equal(cfg.search["ranges"].lo, box.lo)
    np.testing.assert_array_equal(cfg.search["ranges"].hi, box.hi)


def test_config_accepts_exactly_the_documented_keys():
    rise = {"min_amplitude", "rise_time_min_s", "rise_time_max_s"}
    assert {section: set(keys) for section, keys in _SCHEMA.items()} == {
        "run": {"seed", "output_dir", "workers"},
        "dataset": {"dir", "n_sessions", "duration_s", "rate_hz", "train_frac"},
        "oracle": {"baseline_us", "tau_rise_s", "tau_decay_s", "gain", "latency_s",
                   "tonic_drift", "noise_sd"},
        "decomposition": {"median_window_s", "average_window_s"},
        "surrogate": {"clip_len_s", "stride_samples", "ridge_lambda"},
        "control": {"integral_clamp", "max_longitudinal", "max_rotational"},
        "detector.kim2004": rise,
        "detector.gamboa2008": rise | {"min_separation_s"},
        "detector.neurokit": rise | {"prominence_frac"},
        "optimizer": {"budget", "seed", "mode", "explore_frac", "sigma_scale", "halve_after",
                      *(f"{end}_{key}" for key in GAIN_KEYS for end in ("lo", "hi"))},
        "report": {"svg"},
    }


def test_every_key_loads_through_an_override(monkeypatch):
    # `--set section.key=<its default>` reaches every key, the dotted
    # detector sections too, and leaves the default config
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    default = repr(load_config())
    for section, keys in _SCHEMA.items():
        for key, value in keys.items():
            override = f"{section}.{key}={'' if value is None else value}"
            assert repr(load_config(overrides=[override])) == default, override


def test_config_file_and_overrides(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    path = tmp_path / "run.ini"
    # an inline comment follows whitespace; "#" with none before it is data
    path.write_text(
        "[run]\nseed = 3\noutput_dir = from_file   ; where results go\n"
        "[dataset]\ndir = data#1\n"
        "[optimizer]\nbudget = 50 # short\nhi_K_Il = 0.02 ; note\n"
        "[surrogate]\nstride_samples = 3\n"
        "[report]\nsvg = no\n"
    )
    cfg = load_config(path, overrides=["optimizer.budget=7", "dataset.rate_hz=8"])
    assert cfg.synth["seed"] == 3
    assert cfg.search["budget"] == 7  # --set beats the file
    assert cfg.synth["rate_hz"] == 8.0
    assert cfg.train["stride_samples"] == 3
    assert cfg.svg is False
    assert str(cfg.output_dir) == "from_file"
    assert str(cfg.dataset_dir) == "data#1"
    # a per-gain bound moves its own entry only
    assert cfg.search["ranges"].hi[1] == 0.02
    assert cfg.search["ranges"].hi[0] == 0.5
    # an empty stride_samples unsets the file's
    unset = load_config(path, overrides=["surrogate.stride_samples="])
    assert unset.train["stride_samples"] is None


def test_readme_ini_examples_load(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    configs = []
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.ini"
        path.write_text(block, encoding="utf-8")
        configs.append(load_config(path))
    cfg = configs[0]
    assert cfg.search["budget"] == 400
    assert cfg.synth["n_sessions"] == 40
    assert cfg.svg is True
    hi = GainRanges().hi.copy()
    hi[[GAIN_KEYS.index("K_Pf"), GAIN_KEYS.index("K_Df")]] = 0.25
    np.testing.assert_array_equal(cfg.search["ranges"].hi, hi)


def test_output_dir_precedence(tmp_path, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text("[run]\noutput_dir = from_file\n")
    monkeypatch.setenv(ENV_OUTPUT_DIR, "from_env")
    assert str(load_config(path).output_dir) == "from_env"
    assert str(load_config(path, output_dir_flag="from_flag").output_dir) == "from_flag"
    monkeypatch.delenv(ENV_OUTPUT_DIR)
    assert str(load_config(path).output_dir) == "from_file"


def test_config_rejects_unknown_names(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[rocket]\nfuel = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[run]\nspeed = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(bad_key)
    for override in ("run.speed=1", "optimizer.k_hi=0.3"):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(overrides=[override])
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(overrides=["run.seed"])


def test_config_rejects_bad_values(tmp_path):
    # a value parses as its default's type; stride_samples, unset by default, as an int
    for override, kind in (("optimizer.budget=soon", "int"), ("report.svg=maybe", "bool"),
                           ("surrogate.stride_samples=2.5", "int"), ("run.seed=1.5", "int")):
        value = override.partition("=")[2]
        with pytest.raises(ConfigError, match=f"cannot parse '{value}' as {kind}$"):
            load_config(overrides=[override])
    with pytest.raises(ConfigError, match="budget must be"):
        load_config(overrides=["optimizer.budget=0"])
    with pytest.raises(ConfigError, match="workers"):
        load_config(overrides=["run.workers=0"])
    with pytest.raises(ConfigError, match="mode"):
        load_config(overrides=["optimizer.mode=online"])
    for key in ("sigma_scale=0", "sigma_scale=-1", "sigma_scale=nan", "halve_after=0",
                "explore_frac=0"):
        with pytest.raises(ConfigError, match=key.partition("=")[0]):
            load_config(overrides=[f"optimizer.{key}"])
    with pytest.raises(ConfigError, match="empty range"):
        load_config(overrides=["optimizer.hi_K_Pl=0.1", "optimizer.lo_K_Pl=0.2"])
    with pytest.raises(ConfigError, match="min_amplitude must be positive"):
        load_config(overrides=["detector.kim2004.min_amplitude=-1"])
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini")


# ---------------------------------------------------------------------------
# Command-line pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    for command in ("synth", "train", "optimize", "evaluate"):
        assert main([command, "--output-dir", str(out), *SMALL]) == 0
    return out


def test_pipeline_writes_all_artifacts(pipeline_dir):
    for name in (
        "dataset/manifest.csv",
        "model.csv",
        "gains.txt",
        "history.csv",
        "report.csv",
        "per_session.csv",
        "msdv.svg",
    ):
        assert (pipeline_dir / name).is_file(), name
    history = (pipeline_dir / "history.csv").read_text().splitlines()
    assert len(history) == 1 + 12  # header plus one row per trial
    report = (pipeline_dir / "report.csv").read_text().splitlines()
    assert len(report) == 1 + 3 + 2


def test_report_rebuilds_from_per_session_table(pipeline_dir):
    before = (pipeline_dir / "report.csv").read_bytes()
    (pipeline_dir / "report.csv").unlink()
    assert main(["report", "--output-dir", str(pipeline_dir)]) == 0
    assert (pipeline_dir / "report.csv").read_bytes() == before


def test_evaluate_writes_the_per_session_table_first(pipeline_dir, tmp_path, monkeypatch):
    # a crash after the per-session table leaves what `report` rebuilds the rest from
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    names = ("per_session.csv", "report.csv", "msdv.svg")
    before = {name: (out / name).read_bytes() for name in names}
    for name in names:
        (out / name).unlink()

    def crash(report, path):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_report_csv", crash)
    assert main(["evaluate", "--output-dir", str(out), *SMALL]) == 2
    assert (out / "per_session.csv").read_bytes() == before["per_session.csv"]
    assert not (out / "report.csv").exists() and not (out / "msdv.svg").exists()
    monkeypatch.undo()
    assert main(["report", "--output-dir", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in names} == before


def test_report_rejects_a_corrupt_per_session_table(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    table = out / "per_session.csv"
    lines = table.read_text().splitlines()
    row = lines[1].split(",")
    for column, value, message in ((-1, "nan", "MSDV values must be finite"),
                                   (1, "-3", "event counts must be non-negative")):
        for name in ("report.csv", "msdv.svg"):
            (out / name).unlink(missing_ok=True)
        bad = row.copy()
        bad[column] = value
        table.write_text("\n".join([lines[0], ",".join(bad), *lines[2:]]) + "\n")
        capsys.readouterr()
        assert main(["report", "--output-dir", str(out)]) == 2, value
        assert f"{table}:2: {message}" in capsys.readouterr().err
        assert not (out / "report.csv").exists() and not (out / "msdv.svg").exists()


def test_report_svg_toggle(pipeline_dir):
    (pipeline_dir / "msdv.svg").unlink()
    assert main(["report", "--output-dir", str(pipeline_dir), "--set", "report.svg=false"]) == 0
    assert not (pipeline_dir / "msdv.svg").exists()
    assert main(["report", "--output-dir", str(pipeline_dir)]) == 0
    assert (pipeline_dir / "msdv.svg").exists()


def test_synth_reports_split_sizes(tmp_path, capsys):
    assert main(["synth", "--output-dir", str(tmp_path), "--set",
                 "dataset.n_sessions=4", "--set", "dataset.duration_s=60"]) == 0
    out = capsys.readouterr().out
    assert "wrote 4 sessions (3 train / 1 eval)" in out
    # a cohort too short for the pulses it draws says so, and still exits 0
    assert out.splitlines()[1] == ("sessions short of their drawn pulses: "
                                   "s000 (5), s001 (5), s002 (4), s003 (5); 19 in total")
    assert main(["synth", "--output-dir", str(tmp_path), "--set",
                 "dataset.n_sessions=4", "--set", "dataset.duration_s=240"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_output_dir_env_is_honored(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(target))
    assert main(["synth", "--set", "dataset.n_sessions=1",
                 "--set", "dataset.duration_s=60"]) == 0
    assert (target / "dataset" / "manifest.csv").is_file()


# ---------------------------------------------------------------------------
# Exit codes and failure hygiene
# ---------------------------------------------------------------------------

def test_usage_errors_exit_one():
    for argv in ([], ["launch"], ["synth", "--bogus"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1


def test_config_errors_exit_one(tmp_path, capsys):
    assert main(["synth", "--output-dir", str(tmp_path), "--set", "run.speed=1"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["optimize", "--output-dir", str(tmp_path), "--set", "optimizer.k_hi=0.3"]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert main(["synth", "--output-dir", str(tmp_path), "--set", "optimizer.budget=-4"]) == 1
    assert main(["synth", "--output-dir", str(tmp_path), "--set", "optimizer.sigma_scale=0"]) == 1
    assert "sigma_scale must be positive" in capsys.readouterr().err
    # the library's own cohort, clamp and training checks reject these for
    # every command
    too_few = "must give a finite count of at least 2 samples"
    for settings, message in ((["dataset.n_sessions=0"], "n_sessions must be >= 1"),
                              (["dataset.duration_s=0.2"], too_few),
                              (["dataset.duration_s=1e300", "dataset.rate_hz=1e10"], too_few),
                              (["dataset.rate_hz=0"], "rate_hz must be positive"),
                              (["dataset.train_frac=1.5"], "train_frac must be in [0, 1]"),
                              (["control.integral_clamp=0"], "integral_clamp must be positive"),
                              (["surrogate.clip_len_s=0"], "clip_len_s must be positive, got 0.0"),
                              (["surrogate.stride_samples=0"],
                               "stride_samples must be >= 1 when set, got 0"),
                              (["surrogate.ridge_lambda=-1"],
                               "ridge_lambda must be >= 0, got -1.0"),
                              # NaN fails every bound, as does an infinite window
                              (["control.max_longitudinal=nan"],
                               "acceleration limits must be positive"),
                              (["decomposition.median_window_s=nan"],
                               "decomposition windows must be positive and finite"),
                              (["decomposition.average_window_s=inf"],
                               "decomposition windows must be positive and finite"),
                              (["detector.gamboa2008.min_separation_s=nan"],
                               "min_separation_s must be non-negative"),
                              (["detector.neurokit.prominence_frac=nan"],
                               "prominence_frac must be non-negative"),
                              # an oracle or training setting, before synth or train runs
                              (["oracle.gain=nan"], "gain must be finite, got nan"),
                              (["oracle.tau_decay_s=inf"], "tau_decay_s must be finite, got inf"),
                              (["surrogate.ridge_lambda=inf"],
                               "ridge_lambda must be finite, got inf"),
                              (["surrogate.clip_len_s=inf"],
                               "clip_len_s must be finite, got inf")):
        sets = [arg for setting in settings for arg in ("--set", setting)]
        for command in ("synth", "train", "optimize", "evaluate", "report"):
            assert main([command, "--output-dir", str(tmp_path), *sets]) == 1
            assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no command wrote


def test_runtime_errors_exit_two(tmp_path, capsys):
    empty = tmp_path / "empty"
    assert main(["train", "--output-dir", str(empty)]) == 2
    assert "edanav: error" in capsys.readouterr().err
    assert not (empty / "model.csv").exists()
    assert main(["optimize", "--output-dir", str(empty)]) == 2
    assert not (empty / "gains.txt").exists()
    assert main(["evaluate", "--output-dir", str(empty)]) == 2
    assert not (empty / "report.csv").exists()
    assert main(["report", "--output-dir", str(empty)]) == 2


def test_non_finite_model_exits_two(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synth", "--output-dir", str(out), *SMALL]) == 0
    assert main(["train", "--output-dir", str(out), *SMALL]) == 0
    model = out / "model.csv"
    lines = model.read_text().splitlines()
    lines[-1] = "nan," + lines[-1].partition(",")[2]
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["optimize", "--output-dir", str(out), *SMALL]) == 2
    assert "weights must be finite" in capsys.readouterr().err
    assert not (out / "gains.txt").exists()


def test_failed_stage_leaves_no_partial_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["synth", "--output-dir", str(out), *SMALL]) == 0
    assert main(["train", "--output-dir", str(out), *SMALL]) == 0
    # evaluation requires the gains file; nothing must appear without it
    assert main(["evaluate", "--output-dir", str(out), *SMALL]) == 2
    for name in ("report.csv", "per_session.csv", "msdv.svg"):
        assert not (out / name).exists(), name


def test_optimize_needs_eval_sessions(tmp_path):
    out = tmp_path / "run"
    flags = ["--set", "dataset.n_sessions=4", "--set", "dataset.duration_s=120",
             "--set", "dataset.train_frac=1.0"]
    assert main(["synth", "--output-dir", str(out), *flags]) == 0
    assert main(["train", "--output-dir", str(out), *flags]) == 0
    assert main(["optimize", "--output-dir", str(out), *flags]) == 2
    assert not (out / "gains.txt").exists()


def test_optimize_and_evaluate_read_only_eval_sessions(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synth", "--output-dir", str(out), *SMALL]) == 0
    assert main(["train", "--output-dir", str(out), *SMALL]) == 0
    accel = out / "dataset" / "s000" / "accel.csv"  # a train session
    lines = accel.read_text().splitlines()
    accel.write_text("\n".join(lines[:4] + ["1.0,oops,3.0"] + lines[5:]) + "\n")
    assert main(["optimize", "--output-dir", str(out), *SMALL]) == 0
    assert main(["evaluate", "--output-dir", str(out), *SMALL]) == 0
    capsys.readouterr()
    assert main(["train", "--output-dir", str(out), *SMALL]) == 2
    assert "bad acceleration value" in capsys.readouterr().err


def test_bad_manifest_ids_exit_two(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synth", "--output-dir", str(out), *SMALL]) == 0
    assert main(["train", "--output-dir", str(out), *SMALL]) == 0
    manifest = out / "dataset" / "manifest.csv"
    rows = manifest.read_text()
    for extra, message in (("s000,train\n", "duplicate session id"),
                           ("../dataset/s000,train\n", "is not a plain name")):
        manifest.write_text(rows + extra)
        for command in ("train", "optimize", "evaluate"):
            capsys.readouterr()
            assert main([command, "--output-dir", str(out), *SMALL]) == 2, command
            assert message in capsys.readouterr().err
    assert not (out / "gains.txt").exists()


def _non_finite_numbers(path: Path) -> list[str]:
    """The cells of a text file that parse as a float that is not finite.

    A cell is a run of characters between commas, spaces, newlines and
    ``=``; one that float() rejects (a name, say) is not a number.
    """
    found = []
    for cell in re.split(r"[,=\s]+", path.read_text(encoding="utf-8")):
        try:
            value = float(cell)
        except ValueError:
            continue
        if not math.isfinite(value):
            found.append(cell)
    return found


def test_every_non_finite_float_setting_fails_the_config_or_runs_finite(tmp_path, capsys):
    # each float key at nan, inf and -inf: the config rejects the value for
    # every command, writing nothing, or the five commands run to exit 0 and
    # every number they write is finite
    cohort = ["--set", "dataset.n_sessions=4", "--set", "dataset.duration_s=60",
              "--set", "optimizer.budget=2"]
    commands = ("synth", "train", "optimize", "evaluate", "report")
    accepted = []
    for section, keys in _SCHEMA.items():
        for key, default in keys.items():
            if type(default) is not float:
                continue
            for value in ("nan", "inf", "-inf"):
                setting = ["--set", f"{section}.{key}={value}"]
                out = tmp_path / f"{section}.{key}={value}"
                try:
                    load_config(None, [setting[1]])
                except ConfigError:
                    for command in commands:
                        assert main([command, "--output-dir", str(out), *setting]) == 1
                    assert not out.exists(), setting
                    continue
                accepted.append(setting[1])
                for command in commands:
                    code = main([command, "--output-dir", str(out), *cohort, *setting])
                    assert code == 0, (setting, command, capsys.readouterr().err)
                written = [*out.rglob("*.csv"), out / "gains.txt"]
                # model, history, report, per-session, manifest, 4 x 2 session files, gains
                assert len(written) == 4 + 1 + 4 * 2 + 1
                for path in written:
                    assert _non_finite_numbers(path) == [], (setting, path)
    capsys.readouterr()
    # the keys whose bounds admit infinity: both acceleration limits, the
    # integral clamp and eight detector bounds
    assert len(accepted) == 11 and all(s.endswith("=inf") for s in accepted), accepted
