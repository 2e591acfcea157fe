"""Terminating decision procedure for linear mixed integer/rational constraints.

The solver reduces any conjunction of non-strict linear constraints over
mixed rational/integer variables to a bounded problem (splitting off the
unbounded inequalities, then applying the Mixed-Echelon-Hermite column
transformation) so that branch-and-bound terminates on every input, and
converts models and unsatisfiability certificates back to the original
system.
"""

from .analysis import (
    Classification,
    InfeasibleSystemError,
    SplitSystem,
    Verdict,
    classify,
    is_direction_bounded,
    split,
)
from .linalg import Matrix, TransformMatrix, hermite_normal_form, is_lower_triangular_with_gaps, is_mctm, is_mehnf, piv
from .model import (
    Budget,
    ConstraintSystem,
    FarkasCertificate,
    Model,
    Sat,
    SolveResult,
    SolveStats,
    Unsat,
    VarInfo,
    VarKind,
    check_certificate,
    check_model,
    normalize,
)
from .mehnf import batch_mehnf
from .simplex import Optimal, OptOutcome, SimplexInstance, UnboundedDirection, check_feasible, optimize, optimize_each
from .smtlib import ParseError, UnsupportedConstructError, emit, parse, parse_file
from .solver import (
    BranchRefutation,
    InternalSoundnessError,
    SolveOptions,
    VarBounds,
    branch_and_bound,
    check_refutation,
    convert_certificate,
    mixed_extension,
    propagate_bounds,
    solve,
    unit_cube_test,
)
from .generators import GenerationError, GenParams, gen_flip, gen_random_unbounded, gen_slack
from .bruteforce import BoxTooLargeError, brute_force_solve

__version__ = "0.1.0"
