"""Trigonometric addition laws on semigroups with an involutive
automorphism: solution families, classification, and brute-force grid
verification.

The toolkit covers five functional equations for pairs f, g : S -> C on a
semigroup carrying an involutive automorphism sigma.  Each equation's
complete solution list is available as parameterized constructors
(:func:`construct`), an inverse classifier (:func:`classify`), and an
exhaustive small-grid search (:func:`grid_solutions`) that double-checks
the first two against each other.
"""

from .characters import (AdditiveFn, MultChar, RhoFn, RhoSpace, WindowedChar,
                         additive_basis, additive_residual,
                         check_condition_I, check_condition_II,
                         enumerate_characters, ideal_sets, parity_residual,
                         rho_space)
from .classify import (ALIASES, ClassifiedSolution, NotASolutionError,
                       Unclassified, alias_equivalent, classify,
                       linear_dependence, reduce_alpha_sym)
from .core import (EPS, FiniteSemigroup, FnTable, SemigroupError,
                   WindowedSemigroup, even_odd_parts, fn, load_semigroup,
                   square_set, stable_json)
from .dsl import (BUILTIN_EQUATIONS, EquationSyntaxError, builtin,
                  evaluate_residual, parse_equation, print_equation,
                  resolve_equation)
from .examples import (bundled_finite, example1, example2,
                       example_semigroups)
from .families import (CASE_COUNTS, EQUATION_IDS, CaseId, CaseParams,
                       ConstraintError, admissible_params, all_case_ids,
                       construct)
from .oracle import (DEFAULT_ALPHABET, BudgetError, GridInputError,
                     coverage_report, fuzz_constructors, grid_solutions,
                     validate_alphabet)

__version__ = "1.0.0"

__all__ = [
    "AdditiveFn", "ALIASES", "BUILTIN_EQUATIONS", "BudgetError",
    "CASE_COUNTS", "CaseId", "CaseParams", "ClassifiedSolution",
    "ConstraintError", "DEFAULT_ALPHABET", "EPS", "EQUATION_IDS",
    "EquationSyntaxError", "FiniteSemigroup", "FnTable", "GridInputError",
    "MultChar", "NotASolutionError", "RhoFn", "RhoSpace", "SemigroupError",
    "Unclassified", "WindowedChar", "WindowedSemigroup",
    "additive_basis", "additive_residual", "admissible_params",
    "alias_equivalent", "all_case_ids", "builtin", "bundled_finite",
    "check_condition_I", "check_condition_II", "classify",
    "construct", "coverage_report",
    "enumerate_characters", "evaluate_residual", "even_odd_parts",
    "example1", "example2", "example_semigroups", "fn",
    "fuzz_constructors", "grid_solutions", "ideal_sets", "linear_dependence",
    "load_semigroup", "parity_residual", "parse_equation", "print_equation",
    "reduce_alpha_sym", "resolve_equation", "rho_space", "square_set",
    "stable_json", "validate_alphabet",
]
