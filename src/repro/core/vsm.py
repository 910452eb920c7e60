"""Scalar reference implementation of the variable state machine.

:class:`VariableStateMachine` tracks a *single* granule, readably and
slowly; the production path is the vectorized shadow in
:mod:`repro.core.shadow`.  Property-based tests assert the two agree on
arbitrary operation sequences, so this module is the executable
specification of Figure 4.

Beyond the four VSM states, the machine carries the two "initialized" bits
of Table II, which let the detector tell a use of *uninitialized* memory
(the reading side was never written at all) from a use of *stale* data (it
was written, but the last write lives on the other side).
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import ILLEGAL, TRANSITIONS, VsmOp, VsmState


@dataclass
class VsmVerdict:
    """Outcome of applying one operation."""

    state: VsmState
    illegal: bool
    #: Set only when ``illegal``: was the offending read uninitialized (UUM)
    #: rather than stale (USD)?
    uninitialized: bool = False


class VariableStateMachine:
    """One granule's state, plus Table II's initialization bits."""

    __slots__ = ("state", "ov_initialized", "cv_initialized")

    def __init__(self) -> None:
        self.state = VsmState.INVALID
        self.ov_initialized = False
        self.cv_initialized = False

    def apply(self, op: VsmOp) -> VsmVerdict:
        """Apply ``op``; returns the verdict (next state + issue flags)."""
        illegal = ILLEGAL[op][self.state]
        uninitialized = False
        if illegal:
            # Classify by the reading side's initialization history.
            side_initialized = (
                self.ov_initialized if op is VsmOp.READ_HOST else self.cv_initialized
            )
            uninitialized = not side_initialized
        self.state = TRANSITIONS[op][self.state]
        self._track_initialization(op)
        return VsmVerdict(self.state, illegal, uninitialized)

    def _track_initialization(self, op: VsmOp) -> None:
        if op is VsmOp.WRITE_HOST:
            self.ov_initialized = True
        elif op is VsmOp.WRITE_TARGET:
            self.cv_initialized = True
        elif op is VsmOp.UPDATE_HOST:
            # OV now holds whatever the CV held.
            self.ov_initialized = self.cv_initialized
        elif op is VsmOp.UPDATE_TARGET:
            self.cv_initialized = self.ov_initialized
        elif op in (VsmOp.ALLOCATE, VsmOp.RELEASE):
            # A fresh CV holds garbage; a released one holds nothing.
            self.cv_initialized = False

    def __repr__(self) -> str:
        return (
            f"VSM({self.state.name}, ov_init={self.ov_initialized}, "
            f"cv_init={self.cv_initialized})"
        )
