"""Two-qubit correlation toolkit.

Classical correlation, quantum discord, and the maximal-correlation-direction
upper bound for arbitrary two-qubit density matrices, plus deterministic
random-state ensembles and the experiment pipelines behind the CLI.
"""

from .canonical import (CanonicalDecomposition, hemisphere_representative, is_canonical,
                        mcdm_direction, to_canonical)
from .closed_form import conditional_entropy_closed
from .ensembles import (SeededGenerator, mixture_family, off_axis_x_state,
                        project_x_state, random_hs_state)
from .errors import (ConsistencyError, NotAStateError, StateParseError,
                     ValidationError)
from .fano_bloch import (BlockDecomposition, blocks, correlation_matrix,
                         decompose, reconstruct, state_blocks)
from .linalg import (PAULIS, SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z,
                     binary_entropy, eigvals_hermitian, partial_trace,
                     su2_from_so3, validate_density_matrix,
                     von_neumann_entropy)
from .measures import (DiscordReport, angles_from_direction, classical_correlation,
                       construct_zero_discord, direction_from_angles, mcdm_discord,
                       minimize_conditional_entropy, mutual_information, quantum_discord,
                       zero_discord_witness)
from .oracle import (MeasurementOutcome, PostMeasurementEnsemble,
                     bell_diagonal_classical_correlation, conditional_entropy_direct,
                     post_measurement, projectors)
from .statefile import format_state, parse_state_text

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "CanonicalDecomposition",
    "ConsistencyError",
    "DiscordReport",
    "MeasurementOutcome",
    "NotAStateError",
    "PAULIS",
    "PostMeasurementEnsemble",
    "SIGMA_0",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SeededGenerator",
    "StateParseError",
    "ValidationError",
    "angles_from_direction",
    "bell_diagonal_classical_correlation",
    "binary_entropy",
    "blocks",
    "classical_correlation",
    "conditional_entropy_closed",
    "conditional_entropy_direct",
    "construct_zero_discord",
    "correlation_matrix",
    "decompose",
    "direction_from_angles",
    "eigvals_hermitian",
    "format_state",
    "hemisphere_representative",
    "is_canonical",
    "mcdm_direction",
    "mcdm_discord",
    "minimize_conditional_entropy",
    "mixture_family",
    "mutual_information",
    "off_axis_x_state",
    "parse_state_text",
    "partial_trace",
    "post_measurement",
    "project_x_state",
    "projectors",
    "quantum_discord",
    "random_hs_state",
    "reconstruct",
    "state_blocks",
    "su2_from_so3",
    "to_canonical",
    "validate_density_matrix",
    "von_neumann_entropy",
]
