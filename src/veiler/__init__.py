"""Opacity enforcement by event insertion for finite-automaton systems.

The package decides whether current-state opacity of a system can be
enforced by inserting fictitious events before and after each real output,
both with an unrestricted insertion alphabet and under constraints on which
events may go where.  Verdicts come from verifier constructions over an
indicator product; an independent brute-force oracle, whose insertion walks
are exact reach sets, cross-checks them on small systems.  The construction
stages are public in their modules.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .fsm import Automaton
from .insertion import check_ei_enforceable
from .observer import check_current_state_opacity

__all__ = [
    "Automaton",
    "check_current_state_opacity",
    "check_ei_enforceable",
    "__version__",
]
