"""Cohort generator and dataset disk-layout tests."""

import hashlib
import shutil
from dataclasses import replace

import numpy as np
import pytest

from edanav.dataset import SessionRecord, load_dataset, save_dataset, synth_cohort
from edanav.errors import FileFormatError
from edanav.scr import DetectorParams, count_events
from edanav.signals import Trace, Unit, decompose
from edanav.surrogate import OracleParams


def _onsets(profile):
    """Sample indices where a pulse starts (zero to nonzero transition)."""
    x = profile.samples
    return [i for i in range(len(x)) if x[i] > 0 and (i == 0 or x[i - 1] == 0)]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_cohort_is_deterministic():
    first = synth_cohort(6, 120.0, 4.0, seed=3)
    second = synth_cohort(6, 120.0, 4.0, seed=3)
    for a, b in zip(first, second):
        assert a.session_id == b.session_id and a.split == b.split
        np.testing.assert_array_equal(a.a_l.samples, b.a_l.samples)
        np.testing.assert_array_equal(a.a_r.samples, b.a_r.samples)
        np.testing.assert_array_equal(a.eda.samples, b.eda.samples)
    other = synth_cohort(6, 120.0, 4.0, seed=4)
    assert not np.array_equal(first[0].eda.samples, other[0].eda.samples)


def test_cohort_shape_and_split():
    records = synth_cohort(40, 240.0, 4.0, seed=0)
    assert len(records) == 40
    assert [r.session_id for r in records][:3] == ["s000", "s001", "s002"]
    assert sum(r.split == "train" for r in records) == 30
    assert all(r.split == "train" for r in records[:30])
    assert all(r.split == "eval" for r in records[30:])
    for r in records:
        assert len(r.a_l) == len(r.a_r) == len(r.eda) == 960
        assert r.a_l.unit == Unit.M_PER_S2
        assert r.a_r.unit == Unit.RAD_PER_S2
        assert r.eda.unit == Unit.MICROSIEMENS


def test_profiles_are_sparse_non_negative_pulses():
    records = synth_cohort(8, 240.0, 4.0, seed=1)
    for r in records:
        for tr, hi in ((r.a_l, 4.5), (r.a_r, 1.6)):
            x = tr.samples
            assert np.all(x >= 0.0)
            assert float(x.max()) <= hi
            assert np.mean(x == 0.0) > 0.5  # resting is exactly zero
        # the longitudinal channel carries at least one strong anchor pulse
        assert float(r.a_l.samples.max()) >= 4.0
        assert r.a_r.samples.max() > 0.0


def test_pulse_onsets_are_separated_across_channels():
    records = synth_cohort(8, 240.0, 4.0, seed=2)
    min_gap = 31  # 8 s at 4 Hz, less one sample of rounding slack
    for r in records:
        onsets = sorted(_onsets(r.a_l) + _onsets(r.a_r))
        gaps = [b - a for a, b in zip(onsets, onsets[1:])]
        assert all(g >= min_gap for g in gaps), (r.session_id, gaps)


def test_eda_rides_on_the_oracle_baseline():
    records = synth_cohort(4, 120.0, 4.0, seed=5)
    for r in records:
        assert np.all(r.eda.samples > 4.0)
        assert float(np.median(r.eda.samples)) < 6.0


def test_every_session_yields_detectable_events():
    # the generator must drive the oracle hard enough that each session's
    # decomposed phasic shows at least one event under the strictest detector
    detector = DetectorParams("neurokit", min_amplitude=1e-6)
    for r in synth_cohort(40, 240.0, 4.0, seed=0):
        phasic = decompose(r.eda).phasic
        assert count_events(phasic.samples[None], 4.0, (detector,))[0, 0] >= 1, r.session_id


def test_oracle_params_pass_through():
    quiet = OracleParams(noise_sd=0.0, tonic_drift=0.0)
    records = synth_cohort(2, 120.0, 4.0, oracle=quiet, seed=7)
    # without noise or drift, resting EDA sits exactly on the baseline
    assert records[0].eda.samples[0] == quiet.baseline_us


def test_cohort_validation():
    with pytest.raises(ValueError):
        synth_cohort(0, 240.0, 4.0)
    with pytest.raises(ValueError):
        synth_cohort(4, 240.0, 4.0, train_frac=1.5)
    with pytest.raises(ValueError):
        synth_cohort(4, 0.25, 4.0)
    # a pulse onset needs 9 s of the rounded duration: 8.5 s is too short,
    # and 8.9 s at 4 Hz rounds to 36 samples, 9 s
    with pytest.raises(ValueError, match=r"duration 8\.5 s is below the 9\.0 s"):
        synth_cohort(4, 8.5, 4.0)
    assert len(synth_cohort(1, 8.9, 4.0)[0].eda) == 36


def test_session_record_validation():
    tr = Trace(np.zeros(10), 4.0)
    with pytest.raises(ValueError, match="split"):
        SessionRecord("s0", tr, tr, tr, split="test")
    with pytest.raises(ValueError, match="share length"):
        SessionRecord("s0", tr, tr, Trace(np.zeros(9), 4.0))
    with pytest.raises(ValueError, match="share rate"):
        SessionRecord("s0", tr, tr, Trace(np.zeros(10), 8.0))



def test_session_records_compare_by_value():
    first = synth_cohort(1, 120.0, 4.0, seed=1)[0]
    second = synth_cohort(1, 120.0, 4.0, seed=1)[0]
    assert first.eda is not second.eda
    assert first == second
    assert decompose(first.eda) == decompose(second.eda)
    eda = first.eda.samples.copy()
    eda[7] += 1e-9
    assert replace(first, eda=Trace(eda, first.eda.rate_hz, first.eda.unit)) != first
    assert replace(first, a_l=Trace(first.a_l.samples, first.a_l.rate_hz)) != first  # unit
    assert Trace(eda, 4.0) != Trace(eda, 8.0)


def test_a_short_draw_is_counted_on_the_session(tmp_path):
    # 60 s leaves little room for 8 s gaps: this cohort places 19 fewer
    # pulses than it draws counts for, and its samples are the ones it
    # always had
    records = synth_cohort(4, 60.0, 4.0, seed=0)
    assert [r.missing_pulses for r in records] == [5, 5, 4, 5]
    digest = hashlib.sha256()
    for r in records:
        for trace in (r.a_l, r.a_r, r.eda):
            digest.update(trace.samples.tobytes())
    assert digest.hexdigest() == (
        "c7ca16191724bf46b332f321b70f10744c860288de4e024ce24d8ce24e5af531")
    # the count takes no part in equality or repr, and a loaded session reads 0
    assert records[0] == replace(records[0], missing_pulses=0)
    assert "missing_pulses" not in repr(records[0])
    save_dataset(records, tmp_path / "ds")
    assert [r.missing_pulses for r in load_dataset(tmp_path / "ds")] == [0] * 4
    # the benchmark's cohorts, at its seeds 0 and 1, place every pulse
    for n_sessions, duration_s, rate_hz in ((40, 240.0, 4.0), (12, 900.0, 8.0)):
        for seed in (12345, 12346):
            cohort = synth_cohort(n_sessions, duration_s, rate_hz, seed=seed)
            assert [r.missing_pulses for r in cohort] == [0] * n_sessions


# ---------------------------------------------------------------------------
# Disk layout
# ---------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    records = synth_cohort(5, 120.0, 4.0, seed=8, train_frac=0.6)
    save_dataset(records, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert [r.session_id for r in back] == [r.session_id for r in records]
    for a, b in zip(records, back):
        assert a.split == b.split
        np.testing.assert_array_equal(a.a_l.samples, b.a_l.samples)
        np.testing.assert_array_equal(a.a_r.samples, b.a_r.samples)
        np.testing.assert_array_equal(a.eda.samples, b.eda.samples)
        assert b.a_l.unit == Unit.M_PER_S2
        assert b.a_r.unit == Unit.RAD_PER_S2
        assert b.eda.rate_hz == 4.0


def test_dataset_layout_on_disk(tmp_path):
    records = synth_cohort(1, 240.0, 4.0, seed=9)
    save_dataset(records, tmp_path / "ds")
    manifest = (tmp_path / "ds" / "manifest.csv").read_text().splitlines()
    assert manifest == ["id,split", "s000,train"]
    accel = (tmp_path / "ds" / "s000" / "accel.csv").read_text().splitlines()
    assert accel[0].startswith("# rate_hz=4.0 unit_a_l=m_per_s2 unit_a_r=rad_per_s2")
    assert accel[1] == "t_s,a_l,a_r"
    assert len(accel) == 2 + 960  # one row per sample
    assert (tmp_path / "ds" / "s000" / "eda.csv").is_file()


def test_save_is_byte_deterministic(tmp_path):
    records = synth_cohort(2, 120.0, 4.0, seed=10)
    save_dataset(records, tmp_path / "a")
    save_dataset(records, tmp_path / "b")
    for name in ("manifest.csv", "s000/accel.csv", "s000/eda.csv", "s001/accel.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_save_leaves_no_temporary_files(tmp_path):
    save_dataset(synth_cohort(2, 120.0, 4.0, seed=10), tmp_path / "ds")
    files = sorted(str(p.relative_to(tmp_path / "ds")) for p in (tmp_path / "ds").rglob("*"))
    assert files == ["manifest.csv", "s000", "s000/accel.csv", "s000/eda.csv",
                     "s001", "s001/accel.csv", "s001/eda.csv"]


def test_load_dataset_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nowhere")

    ds = tmp_path / "ds"
    ds.mkdir()
    manifest = ds / "manifest.csv"

    manifest.write_text("wrong,header\n")
    with pytest.raises(FileFormatError, match="id,split"):
        load_dataset(ds)

    manifest.write_text("id,split\n")
    with pytest.raises(FileFormatError, match="no sessions"):
        load_dataset(ds)

    manifest.write_text("id,split\ns000,test\n")
    with pytest.raises(FileFormatError, match="unknown split"):
        load_dataset(ds)

    manifest.write_text("id,split\ns000,train\n")
    with pytest.raises(FileNotFoundError):
        load_dataset(ds)  # manifest points at a session directory that is absent


def test_load_dataset_rejects_corrupt_accel(tmp_path):
    records = synth_cohort(1, 120.0, 4.0, seed=11)
    ds = tmp_path / "ds"
    save_dataset(records, ds)
    accel = ds / "s000" / "accel.csv"
    lines = accel.read_text().splitlines()
    accel.write_text("\n".join(lines[:4] + ["1.0,oops,3.0"] + lines[5:]) + "\n")
    with pytest.raises(FileFormatError, match="bad acceleration value") as excinfo:
        load_dataset(ds)
    assert excinfo.value.line == 5
    accel.write_text("\n".join(lines[:2]) + "\n")
    with pytest.raises(FileFormatError, match="needs metadata"):
        load_dataset(ds)


def test_load_dataset_rejects_malformed_accel_metadata(tmp_path):
    records = synth_cohort(1, 120.0, 4.0, seed=11)
    ds = tmp_path / "ds"
    save_dataset(records, ds)
    accel = ds / "s000" / "accel.csv"
    lines = accel.read_text().splitlines()
    assert lines[0] == "# rate_hz=4.0 unit_a_l=m_per_s2 unit_a_r=rad_per_s2"
    for meta, message in (
        ("# rate_hz=4.0 unit_a_l=furlongs unit_a_r=rad_per_s2", "unknown unit 'furlongs'"),
        ("# rate_hz=4.0 unit_a_l=m_per_s2 unit_a_r=rad_per_s2 stray", "malformed metadata"),
    ):
        accel.write_text("\n".join([meta, *lines[1:]]) + "\n")
        with pytest.raises(FileFormatError, match=message) as excinfo:
            load_dataset(ds)
        assert excinfo.value.line == 1


@pytest.mark.parametrize("name, lineno, line, message", [
    ("eda.csv", 3, "0.25,nan", "trace samples must be finite"),
    ("accel.csv", 0, "# rate_hz=0.0 unit_a_l=m_per_s2 unit_a_r=rad_per_s2",
     "rate_hz must be a positive finite number"),
], ids=("eda.csv", "accel.csv"))
def test_load_dataset_names_the_file_of_a_rejected_value(tmp_path, name, lineno, line, message):
    # the file parses, but holds a value the trace rejects
    ds = tmp_path / "ds"
    save_dataset(synth_cohort(1, 120.0, 4.0, seed=11), ds)
    path = ds / "s000" / name
    lines = path.read_text().splitlines()
    lines[lineno] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=message) as excinfo:
        load_dataset(ds)
    assert excinfo.value.path == str(path)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "traces must share length"),
    (lambda lines: ["# unit=microsiemens rate_hz=8.0", *lines[1:]], "traces must share rate"),
], ids=("length", "rate"))
def test_load_dataset_names_both_files_of_a_mismatched_session(tmp_path, edit, message):
    # each file parses alone, but eda.csv disagrees with accel.csv
    ds = tmp_path / "ds"
    save_dataset(synth_cohort(2, 120.0, 4.0, seed=11), ds)
    eda = ds / "s000" / "eda.csv"
    eda.write_text("\n".join(edit(eda.read_text().splitlines())) + "\n")
    with pytest.raises(FileFormatError, match=message) as excinfo:
        load_dataset(ds)
    assert excinfo.value.path == str(ds / "s000" / "accel.csv")
    assert str(eda) in str(excinfo.value)


def test_load_dataset_rejects_bad_session_ids(tmp_path):
    ds = tmp_path / "ds"
    save_dataset(synth_cohort(2, 120.0, 4.0, seed=12), ds)
    shutil.copytree(ds / "s000", tmp_path / "x_s")  # a session outside the dataset
    manifest = ds / "manifest.csv"
    for row, message in (
        ("s000,train", "duplicate session id 's000'"),
        (",train", "session id '' is not a plain name"),
        (".,train", "session id '.' is not a plain name"),
        ("..,train", "session id '..' is not a plain name"),
        ("../x_s,train", "session id '../x_s' is not a plain name"),
        ("s0/x,train", "is not a plain name"),
        ("s0\\x,train", "is not a plain name"),
    ):
        manifest.write_text(f"id,split\ns000,train\n{row}\ns001,eval\n")
        for splits in (("train", "eval"), ("eval",)):
            with pytest.raises(FileFormatError, match=message) as excinfo:
                load_dataset(ds, splits=splits)
            assert excinfo.value.line == 3, row


@pytest.mark.parametrize("session_id, message", [
    ("s000", "duplicate session id 's000'"),
    ("../escaped", "session id '../escaped' is not a plain name"),
    ("", "is not a plain name"),
    ("s0\\x", "is not a plain name"),
    ("s0,x", "is not a plain name"),
    ("s0\nx", "is not a plain name"),
    ("s0\x1cx", "is not a plain name"),
])
def test_save_dataset_rejects_ids_the_loader_rejects(tmp_path, session_id, message):
    # every id is checked before anything is written: no session files, no
    # manifest, and nothing outside the directory
    records = synth_cohort(2, 120.0, 4.0, seed=13)
    records[1] = replace(records[1], session_id=session_id)
    ds = tmp_path / "sub" / "ds"
    with pytest.raises(ValueError, match=message):
        save_dataset(records, ds)
    assert list(tmp_path.iterdir()) == []


def test_save_dataset_writes_what_the_loader_reads_back(tmp_path):
    # the ids the loader accepts, dots and spaces included, survive the round trip
    records = synth_cohort(3, 120.0, 4.0, seed=13)
    ids = ["s.0", "a b", "..x"]
    records = [replace(r, session_id=i) for r, i in zip(records, ids)]
    save_dataset(records, tmp_path / "ds")
    assert [r.session_id for r in load_dataset(tmp_path / "ds")] == ids


def _corrupt_train_accel(ds):
    """Break the first train session's accel.csv; returns that session's id."""
    session_id = (ds / "manifest.csv").read_text().splitlines()[1].split(",")[0]
    accel = ds / session_id / "accel.csv"
    lines = accel.read_text().splitlines()
    accel.write_text("\n".join(lines[:4] + ["1.0,oops,3.0"] + lines[5:]) + "\n")
    return session_id


def test_load_dataset_reads_only_the_selected_splits(tmp_path):
    ds = tmp_path / "ds"
    save_dataset(synth_cohort(5, 120.0, 4.0, seed=13, train_frac=0.4), ds)
    clean = [r for r in load_dataset(ds) if r.split == "eval"]
    assert len(clean) == 3
    assert _corrupt_train_accel(ds) == "s000"

    back = load_dataset(ds, splits=("eval",))
    assert [r.session_id for r in back] == [r.session_id for r in clean]
    for a, b in zip(clean, back):
        assert b.split == "eval"
        for name in ("a_l", "a_r", "eda"):
            ta, tb = getattr(a, name), getattr(b, name)
            assert tb.samples.tobytes() == ta.samples.tobytes()
            assert (tb.rate_hz, tb.unit) == (ta.rate_hz, ta.unit)

    with pytest.raises(FileFormatError, match="bad acceleration value"):
        load_dataset(ds)  # the full load still reads the corrupt train file
    with pytest.raises(FileFormatError, match="bad acceleration value"):
        load_dataset(ds, splits=("train",))

    manifest = ds / "manifest.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([lines[0], "s000,test", *lines[2:]]) + "\n")
    with pytest.raises(FileFormatError, match="unknown split 'test'") as excinfo:
        load_dataset(ds, splits=("eval",))  # every row is checked, selected or not
    assert excinfo.value.line == 2


def test_load_dataset_empty_selection(tmp_path):
    ds = tmp_path / "ds"
    save_dataset(synth_cohort(2, 120.0, 4.0, seed=14, train_frac=1.0), ds)
    assert load_dataset(ds, splits=("eval",)) == []
    assert [r.session_id for r in load_dataset(ds, splits=("train",))] == ["s000", "s001"]
