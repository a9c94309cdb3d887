"""Two-colour interferometric vibrometry from raw detector timestamps.

The package simulates photon-counting interferometer outputs (an
entangled pair channel and a classical reference channel) driven by a
vibrating mirror, and estimates the vibration spectrum and waveform back
from the timestamp streams alone.
"""

from .core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
    fringe_probability,
    quadrature_delay,
)
from .errors import AnalysisError, ConfigError, StreamFormatError
from .estimate import (
    AnalysisOptions,
    ComponentEstimate,
    PipelineResult,
    ReconstructedSignal,
    SpectrumEstimate,
    combined_spectrum,
    detection_threshold,
    estimate_component,
    frequency_grid,
    pipeline,
    project_timestamps,
    reconstruct,
    scan_spectrum,
)
from .metrology import (
    AdvantageSetup,
    DelayStdResult,
    TrialScenario,
    TrialStatistics,
    background_advantage_setup,
    loss_advantage_setup,
    matched_exposures,
    monte_carlo_delay_std,
    qcrb_delay_std,
    qcrb_displacement_std,
    run_advantage_experiment,
    run_amplitude_trials,
    run_frequency_sweep,
)
from .simulate import (
    ChannelModel,
    ClassicalRun,
    QuantumRun,
    SignalComponent,
    TimestampStream,
    VibrationSignal,
    classical_fluxes,
    quantum_fluxes,
    sample_inhomogeneous_poisson,
    simulate_classical_run,
    simulate_quantum_run,
)
from .streamio import (
    read_stream,
    write_ground_truth,
    write_stream_binary,
    write_stream_text,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
