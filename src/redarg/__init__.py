"""Toolkit for detecting, removing, and verifying redundant function
arguments in many-sorted term rewriting systems."""

from .errors import (
    ArityMismatch,
    EmptySort,
    NoGroundConstant,
    NotAConstructorSystem,
    ParseError,
    PositionOutOfRange,
    PreconditionUnmet,
    RedargError,
    SortMismatch,
    WellFormednessError,
)
from .terms import (
    App,
    FuncSymbol,
    Position,
    Substitution,
    Term,
    Var,
    format_position,
    format_term,
    is_ground,
    match,
    replace,
    subterm,
    unify,
    unify_up_to_arg,
    vars_of,
)
from .trs import (
    CriticalPair,
    PropertyReport,
    Rule,
    Trs,
    build_property_report,
    check_completely_defined,
    check_confluence,
    check_constructor_system,
    check_left_linear,
    check_seval_defined,
    critical_pairs,
    designated_constant,
    designated_constants,
    format_trs,
    parse_term,
    parse_trs,
    rules_alpha_equal,
)
from .rewrite import (
    EvalOutcome,
    SemanticsResult,
    bounded_semantics,
    normalize,
    rewrite_step,
)
from .analysis import (
    AnalysisResult,
    FITriple,
    analyze,
    fi_triples,
    pattern_case,
    sigma_c,
    tau_transform,
    variable_case,
)
from .erasure import (
    erase_term,
    erase_trs,
    erasure_table,
    reduced_erasure,
)
from .oracle import (
    Counterexample,
    EnumBounds,
    NoCounterexampleUpTo,
    VerifyReport,
    brute_force_redundant,
    differential_verify,
    enumerate_contexts,
    enumerate_ground_terms,
)

__version__ = "0.1.0"
