"""Adaptive VR navigation driven by electrodermal activity.

Simulation and optimization toolkit for a PID-based acceleration
adaptation law: EDA decomposition and event detection, a windowed-linear
phasic surrogate, session replay, and a gain search maximizing the
share of sessions whose predicted event count drops under adaptation.
"""

from .config import ENV_OUTPUT_DIR, RunConfig, load_config
from .control import (
    DEFAULT_INTEGRAL_CLAMP,
    GAIN_KEYS,
    AccelLimits,
    PidGains,
    adapt_trace,
    plouzeau_step,
    read_gains,
    write_gains,
)
from .dataset import SessionRecord, load_dataset, save_dataset, synth_cohort
from .errors import ConfigError, DegenerateInputError, FileFormatError
from .metrics import (
    Report,
    SessionStats,
    StatResult,
    build_report,
    chi_square_phi,
    msdv,
    read_per_session_csv,
    write_msdv_svg,
    write_per_session_csv,
    write_report_csv,
)
from .optimize import (
    GainRanges,
    OptimizeResult,
    SimulationResult,
    Trial,
    evaluate_sessions,
    optimize,
    write_history_csv,
)
from .pipeline import eval_split, held_out_mae, train_split, train_surrogate
from .scr import (
    METHODS,
    DetectorParams,
    ScrEvent,
    count_er_scr,
    default_detectors,
    detect_scr,
    write_events_csv,
)
from .signals import (
    DecompositionConfig,
    EdaDecomposition,
    NormParams,
    Trace,
    Unit,
    decompose,
    denormalize,
    derivative,
    format_float,
    normalize,
    read_trace_csv,
    resample,
    write_trace_csv,
)
from .surrogate import (
    ClipNorm,
    OracleParams,
    SurrogateModel,
    bateman_kernel,
    clip_samples,
    fit_surrogate,
    make_clips,
    predict_clip,
    predict_session,
    predict_windows,
    read_model,
    reconstruct,
    synth_session,
    write_model,
)

__version__ = "0.1.0"
