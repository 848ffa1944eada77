"""Workbench for many-logics modal logic over the eight-valued Boolean
algebra with a consistency ("ball") operator.

The package evaluates formulas in four-valued propositional and
lattice-labeled Kripke semantics, checks Hilbert-style derivations in the
matching propositional and modal calculi, and exhaustively verifies or
refutes frame-characterization claims over all small frames.
"""

from .algebra import (
    BOT,
    E1,
    E12,
    E13,
    E2,
    E23,
    E3,
    TOP,
    ULTRAFILTERS,
    DEFAULT_ULTRAFILTER,
    Ultrafilter,
    ball,
    carrier,
    complement,
    down_interp,
    element_from_name,
    element_name,
    is_designated,
    join,
    meet,
    z_of,
)
from .syntax import (
    And,
    Ball,
    Bot,
    Box,
    BoxDiff,
    BoxSame,
    Diamond,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    Xor,
    ball_substitution,
    format_formula,
    generate_corpus,
    parse,
    variables,
)
from ._sweep import ResourceBudgetExceeded
from .kripke import (
    Frame,
    Model,
    classical_reference_eval,
    countermodel_search,
    eval_formula,
    find_frame_countermodel,
    frame_from_dict,
    frame_to_dict,
    frame_valid,
    model_from_dict,
    model_to_dict,
    model_valid,
    satisfies,
)
from .frames import (
    CorrespondenceReport,
    PROPERTIES,
    correspondence_check,
    enumerate_frames,
    fixtures,
    indiscernibility_check,
)
from .prop4 import consequence4, eval4, rule_soundness_report
from .proofs import (
    Derivation,
    DerivationStep,
    Judgment,
    check,
    check_step,
    load_bundled_corpus,
    semantic_crosscheck,
)

__version__ = "0.1.0"
