"""Adaptive VR navigation driven by electrodermal activity.

Simulation and optimization toolkit for a PID-based acceleration
adaptation law: EDA decomposition and event detection, a windowed-linear
phasic surrogate, session replay, and a gain search maximizing the
share of sessions whose predicted event count drops under adaptation.

The package exports the names the README quick start and the demos use;
everything else is imported from its module (``edanav.signals``,
``edanav.scr``, ``edanav.control``, ...).
"""

from .control import AccelLimits, PidGains
from .dataset import synth_cohort
from .metrics import build_report
from .optimize import GainRanges, evaluate_sessions, optimize
from .pipeline import eval_split, train_surrogate
from .scr import default_detectors, detect_scr
from .signals import Trace, Unit, decompose
from .surrogate import OracleParams, synth_session

__version__ = "0.1.0"
