"""Qubit-erasure simulator against a quantized thermal reservoir.

Modules: the trapped-ion physical model (ion), information-thermodynamic
functionals and the erasure-equality ledger (info), the sideband readout
chain (readout), experiment orchestration (protocol), and the command line
(cli).  The Fock truncation is the int n_max (ion.n_max_for_nbar sizes it
from nbar).  The dense reference the tests compare against (linalg's
DensityMatrix, kron and partial_trace; ion.thermal_state and
ion.jc_block_unitary) is not re-exported here; import it from its module.
"""

from .ion import (
    ETA_DEFAULT,
    OMEGA_DEFAULT,
    OMEGA_Z_DEFAULT,
    T_OP_DEFAULT,
    JointState,
    PulseParams,
    dephase_qubit,
    evolve,
)
from .info import (
    LandauerLedger,
    UnitSystem,
    ZeroTemperatureError,
    landauer_ledger,
    mutual_information,
    reservoir_energy,
    temperature_from_nbar,
    von_neumann_entropy,
)
from .readout import (
    PhononFit,
    default_n_fit,
    detection_flip,
    exact_trace,
    fit_design_matrix,
    fit_phonon_populations,
    model_trace,
    sample_shots,
)
from .protocol import (
    ExperimentConfig,
    Imperfections,
    REALISTIC_IMPERFECTIONS,
    SweepRow,
    find_entropy_zero_crossings,
    run_erasure,
    simulated_readout_run,
    sweep_temperature,
    sweep_theta,
)

__version__ = "0.1.0"
