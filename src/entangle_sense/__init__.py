"""Simulator and analysis toolkit for two-spin entanglement-enhanced
magnetometry with an optically read sensor spin and an environmental
ancilla spin."""

__version__ = "0.1.0"

from .spinsys import (  # noqa: F401
    GAMMA_E,
    DensityState,
    SpinLayout,
    bell_coherence,
    layout,
    polarized_state,
    pure_state,
)
from .dynamics import (  # noqa: F401
    DecoherenceEnvelope,
    DriveTerm,
    HamiltonianSpec,
    OUNoiseModel,
    optical_pump,
    propagate,
)
from .protocols import (  # noqa: F401
    GateParams,
    NuclearFactor,
    calibrate_gate_error,
    polarization_transfer,
    prepare_entangled,
)
from .readout import snr_gain  # noqa: F401
from .analysis import (  # noqa: F401
    FitResult,
    MagnetometryCurve,
    SensitivityReport,
    TimingBudget,
    fit_sinusoid,
    fit_stretched_exp,
    gain_performance,
    gain_sensitivity,
    overhead_factor,
    snr_bound_check,
    sweep_gain_map,
)
