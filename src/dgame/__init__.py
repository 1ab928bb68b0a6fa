"""Forward and inverse infinite-horizon linear-quadratic descriptor
differential games.

Pipeline: pencil analysis and Weierstrass reduction of (E, A), reduction
of the game to its r dynamic degrees of freedom, feedback Nash equilibria
via coupled Riccati equations, and identification of the cost parameters
that rationalize an observed feedback profile.
"""

from .linalg import (
    is_stable,
    kernel_basis,
    min_eig_sym,
    solve_lyapunov,
    sorted_spectrum,
    unvech,
    vech,
)
from .pencil import (
    ImpulsiveModesError,
    IrregularPencilError,
    Pencil,
    WeierstrassData,
    finite_spectrum,
    index_of,
    is_regular,
    weierstrass,
)
from .game import (
    CostParameters,
    DescriptorGame,
    ReducedGame,
    StaticGameError,
    UnstabilizableError,
    m_matrix,
    reduce_game,
)
from .feedback import (
    FeedbackProfile,
    ReducedFeedback,
    Trajectory,
    UnstableLoopError,
    fit_feedback,
    is_admissible,
    preimage_member,
    preimage_sample,
    read_trajectory_csv,
    reduce_feedback,
    simulate,
    simulate_blocks,
    write_trajectory_csv,
)
from .forward import (
    EquilibriumSolution,
    IndefiniteInputWeightError,
    SolveOptions,
    certify_nash,
    equilibrium_cost,
    solve_fbne,
)
from .inverse import (
    BehaviorReport,
    Constraints,
    InverseCertificate,
    ThetaLayout,
    constraint_matrices,
    dimension_report,
    identify,
    match_behaviors,
    pd_margin,
    rationalized_behaviors,
    residual,
    sample_solution_set,
    scale_theta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
