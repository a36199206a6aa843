"""qdemon: density-matrix toolkit for a purity-swapping qubit channel.

A four-lead scatterer with a qubit micro-environment defines an
energy-conserving, generally non-unital channel that can *decrease* the
entropy of the flying qubit by swapping states with a purer demon qubit.
The package provides the channel and its entropy-gain bound, the concrete
spin and double-dot realisations, the partial-SWAP gate circuits, a double
Mach-Zehnder coherence-restoration test bench, and a two-cycle heat engine
with optimisation of the demon impurity.
"""

from .channel import (
    ChannelConfig,
    ChannelReport,
    apply_channel,
    channel_on_identity,
    entropy_gain,
    gamma,
    joint_unitary,
    mutual_information,
    report_to_json,
)
from .circuits import (
    CNOT_DOWN,
    CNOT_UP,
    HBAR,
    DoubleDotConfig,
    build_SWAP,
    build_UD,
    build_VD,
    double_dot_protocol,
    half_rabi,
    pswap_counterexample,
    pswap_gate,
    u14,
)
from .engine import (
    CycleReport,
    EngineParams,
    OptimizationResult,
    bit_entropy,
    bit_entropy_prime,
    frontier_epsilons,
    minimal_beta,
    optimize_epsilon_eta,
    optimize_epsilon_power,
    pswap_route,
    resolve_epsilon,
    run_cycle,
    sweep_beta,
    thermal_wit,
)
from .interferometer import MziConfig, VisibilityReport, dephase, run_double_mzi
from .qmatrix import (
    ATOL,
    ConvergenceError,
    InvalidStateError,
    ParameterError,
    check_density_matrix,
    check_pure_state,
    check_unitary,
    dag,
    matrix_to_json,
    partial_trace,
    pure_density,
    tensor,
    von_neumann_entropy,
)
from .spin_demon import (
    SpinDemonParams,
    beam_splitter,
    demon_state_from_spec,
    demon_unitaries,
    scatter,
    spin_config,
    xy_states,
)

__version__ = "0.1.0"
