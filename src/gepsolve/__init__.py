"""Difference-objective solvers for symmetric-definite generalized
eigenproblems: minimize x'Bx - sqrt(x'Ax) whose global minimizers are the
dominant eigenvectors of A u = lambda B u."""

from .errors import (
    AsymmetricEntries,
    Breakdown,
    DegenerateDirection,
    DimensionMismatch,
    GepSolveError,
    InputError,
    InvalidStepsize,
    NonFiniteEntries,
    NotNormalized,
    NotPositiveDefinite,
    NotSquare,
    NumericalError,
    ParseError,
    PcgBreakdown,
    StageFailure,
    StaleFactor,
    ZeroDiagonal,
    ZeroVector,
)
from .linalg import (
    CholeskyFactor,
    Counters,
    SymmetricMatrix,
    cholesky_factorize,
    incomplete_cholesky,
    jacobi_eigh,
    read_dense_text,
    read_matrix_market,
    write_dense_text,
    write_matrix_market,
)
from .objective import (
    CurvatureBound,
    MatrixPair,
    PairDiagnosis,
    estimate_curvature_bound,
    eval_f,
    grad_f,
    hess_vec,
    rayleigh_lambda,
    shift_to_psd,
    validate_pair,
)
from .precond import (
    LinearSolver,
    Preconditioner,
    apply_gram_inverse,
    build_preconditioner,
    solve_spd,
    transformed_dominant_eigenvalue,
)
from .solvers import (
    SolverConfig,
    SolveTrace,
    SplitMergeState,
    TraceRecord,
    check_stopping,
    prepare,
    run_gd,
    run_lanczos,
    run_pmd,
    run_power,
    run_split_merge,
    solve,
    split_merge_step,
)
from .deflation import DeflatedOperator, deflate, top_k
from .reference import ReferencePair, reference_solution
from .synthetic import SyntheticSpec, gen_synthetic

__version__ = "0.1.0"
