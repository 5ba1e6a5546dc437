"""Recurrence pencils for Sobolev orthonormal rational functions.

The library discretizes Sobolev inner products with rational Gauss
quadrature, encodes them as a block bidiagonal matrix plus weight vector,
and solves the resulting Hessenberg-pencil inverse eigenvalue problem three
ways: a block-updating procedure, an orthogonal-polynomial route that
installs poles afterwards, and a rational Krylov iteration.  Evaluation and
moment-matrix utilities provide the error metrics used to verify them
against each other.
"""

from .errors import (
    AccuracyError,
    ConfigError,
    DeflationError,
    DegenerateRotationError,
    IllPosedMeasureError,
    KrylovBreakdownError,
    NumericalError,
    PoleCollisionError,
    PositivityError,
    RuleValidationError,
    SorfError,
    SpectrumOverlapError,
)
from .pencil import INFINITY, is_infinite_pole, pole_at
from .quadrature import (
    QuadratureRule,
    ThreeTermCoefficients,
    clenshaw_curtis,
    gauss_gegenbauer,
    rational_gauss,
    stieltjes_modified,
)
from .sobolev import (
    DiscreteSobolevSpec,
    GegenbauerSobolevConfig,
    JordanSystem,
    build_jordan,
    default_pole_list,
    discretize_gegenbauer,
    gegenbauer_pole_ladder,
    gegenbauer_rule,
)
from .updating import (
    IEPSolution,
    add_block,
    embed,
    expected_elimination_count,
    install_poles,
    op1_eliminate,
    op2_add_pole,
    op3_swap_adjacent,
    restore_hessenberg,
    single_block_solution,
    solve_updating,
    weight_rotation,
)
from .reference import rational_arnoldi, solve_via_sop
from .evaluation import (
    SorfTable,
    continuous_moment_matrix,
    discrete_moment_matrix,
    evaluate_solution,
    evaluate_sorfs,
    metric_orthonormality,
    metric_poles,
    metric_recurrence,
    metric_sobolev,
    table_agreement,
)
from .driver import (
    SWEEP_CSV_HEADER,
    dump_quadrature,
    import_quadrature,
    run_solve,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
