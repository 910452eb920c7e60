"""Online repair of data mapping issues (§III.C of the paper).

§III.C sketches what an OpenMP implementation with an integrated analysis
module could do about detected issues (citing OmpMemOpt as pioneering
work):

* issues that manifest as **use of stale data** are repairable at runtime —
  carry out the missing memory transfer between OV and CV right before the
  offending read, making the two storages consistent;
* issues that manifest as **data races** are a compiler problem — insert
  ``depend`` clauses or emit diagnostics pointing at the unordered pair;
* **uses of uninitialized memory** are not repairable by data movement
  (there is no valid value anywhere to transfer) and get diagnostics only.

:class:`RepairingArbalest` implements exactly that split on top of the
detector.  The mechanism exploits the instrumentation order: the access
event is published *before* the raw bytes are read, so a transfer performed
inside the handler changes the value the program observes — the repaired
run computes the result the programmer intended, and every intervention is
logged as a :class:`RepairAction` carrying the equivalent directive the
programmer should add.  That ordering needs immediate delivery, so the
tool sets :attr:`~repro.tools.base.Tool.needs_immediate_access` and the bus
stops batching accesses while it is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..events.source import SourceLocation, UNKNOWN_LOCATION
from ..forensics.provenance import (
    suggest_exit_from,
    suggest_initialize,
    suggest_ordering,
    suggest_update,
)
from ..tools.findings import Finding, FindingKind
from .detector import Arbalest
from .registry import MappingRecord
from .states import VsmOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import Access


@dataclass(frozen=True)
class RepairAction:
    """One runtime intervention (or, for races/UUM, one suggestion)."""

    #: "transfer" (performed) or "diagnostic" (suggestion only).
    kind: str
    variable: str
    #: The directive the programmer should add to make the program correct.
    suggestion: str
    address: int
    nbytes: int
    stack: tuple[SourceLocation, ...] = (UNKNOWN_LOCATION,)

    def render(self) -> str:
        where = self.stack[0]
        verb = "repaired at runtime" if self.kind == "transfer" else "diagnostic"
        return f"[{verb}] {where}: {self.suggestion}"


class RepairingArbalest(Arbalest):
    """ARBALEST plus §III.C's repair policy.

    Detection behaviour (findings, reports) is unchanged — a repaired bug
    is still a bug the programmer must fix; the repairs additionally keep
    the execution on the intended-value path and say which directive is
    missing.
    """

    name = "arbalest-repair"
    needs_immediate_access = True

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.repairs: list[RepairAction] = []

    # -- hook into the data-op path: rescue values before they are lost -----

    def on_data_op(self, op) -> None:
        if op.kind.value == "delete" and op.cv_address != op.ov_address:
            self._rescue_before_delete(op)
        super().on_data_op(op)

    def _rescue_before_delete(self, op) -> None:
        """A CV is about to be destroyed; if it holds the only valid copy of
        any granule, copy it back first (the transfer an exit map(from:)
        would have performed)."""
        import numpy as np

        from .states import VsmState

        machine = self.machine
        assert machine is not None
        block = self.shadows.find(op.ov_address)
        if block is None:
            return
        idx = block.index_range(op.ov_address, op.nbytes)
        states = block.states(idx)
        target_only = states == int(VsmState.TARGET)
        if not np.any(target_only):
            return
        device = machine.device(op.device_id)
        ov_buf = machine.host.buffer_containing(op.ov_address)
        cv_buf = device.buffer_containing(op.cv_address)
        if ov_buf is None or cv_buf is None:
            return
        ov_buf.copy_from(
            cv_buf,
            dst_offset=op.ov_address - ov_buf.base,
            src_offset=op.cv_address - cv_buf.base,
            nbytes=op.nbytes,
        )
        # Deliberately do NOT mark the shadow consistent: discarding a
        # device-written buffer is legal when the host never reads it (a
        # scratch array), so whether this was a bug is only decidable at a
        # later host read.  Detection semantics stay identical to the plain
        # detector (the read, if it happens, is still reported as USD) —
        # only the observed *value* has been rescued.
        mapping = self.mappings.find(op.cv_address)
        variable = mapping.name if mapping is not None else block.label
        self.repairs.append(
            RepairAction(
                kind="transfer",
                variable=variable,
                # Shared with forensics so provenance explanations and live
                # repairs describe the same fix with the same words.
                suggestion=suggest_exit_from(variable),
                address=op.ov_address,
                nbytes=op.nbytes,
                stack=op.stack,
            )
        )

    # -- hook into the detector's report path ------------------------------

    def _report_issue(
        self,
        access: "Access",
        block,
        rec: MappingRecord | None,
        uninitialized: bool,
    ) -> None:
        super()._report_issue(access, block, rec, uninitialized)
        if uninitialized:
            self._diagnose_uum(access, block, rec)
        else:
            self._repair_stale(access, block, rec)

    def report(self, finding: Finding) -> bool:
        new = super().report(finding)
        if new and finding.kind is FindingKind.RACE:
            # Races come in through several paths (program accesses and
            # runtime transfers); hooking the report funnel covers all.
            self._diagnose_race(finding)
        return new

    # -- repairs ----------------------------------------------------------------

    def _repair_stale(self, access: "Access", block, rec: MappingRecord | None) -> None:
        """Perform the missing transfer for a USD, §III.C style."""
        machine = self.machine
        assert machine is not None
        if access.device_id == 0:
            mapping = rec or self.mappings.find_by_ov(access.address)
        else:
            mapping = rec or self.mappings.find(access.address)
        if mapping is None or mapping.unified:
            return  # nothing to transfer (unified storage cannot be stale)
        device = machine.device(mapping.device_id)
        ov_buf = machine.host.buffer_containing(mapping.ov_base)
        cv_buf = device.buffer_containing(mapping.cv_base)
        if ov_buf is None or cv_buf is None:
            return
        if access.device_id == 0:
            # Host read missed a device write: update from(var).
            ov_buf.copy_from(
                cv_buf,
                dst_offset=mapping.ov_base - ov_buf.base,
                src_offset=mapping.cv_base - cv_buf.base,
                nbytes=mapping.nbytes,
            )
            vsm_op = VsmOp.UPDATE_HOST
            direction = "from"
        else:
            # Device read missed a host write: update to(var).
            cv_buf.copy_from(
                ov_buf,
                dst_offset=mapping.cv_base - cv_buf.base,
                src_offset=mapping.ov_base - ov_buf.base,
                nbytes=mapping.nbytes,
            )
            vsm_op = VsmOp.UPDATE_TARGET
            direction = "to"
        # Reflect the transfer in the VSM so the rest of the run sees the
        # now-consistent state (and the read being repaired re-checks fine).
        shadow = self.shadows.find(mapping.ov_base)
        if shadow is not None:
            shadow.apply(
                shadow.index_range(mapping.ov_base, mapping.nbytes),
                vsm_op,
                mapping.device_id,
            )
        self.repairs.append(
            RepairAction(
                kind="transfer",
                variable=mapping.name,
                suggestion=suggest_update(direction, mapping.name),
                address=access.address,
                nbytes=mapping.nbytes,
                stack=access.stack,
            )
        )

    def _diagnose_uum(self, access: "Access", block, rec: MappingRecord | None) -> None:
        variable = (rec.name if rec is not None else "") or getattr(block, "label", "")
        side = "device" if access.device_id else "host"
        self.repairs.append(
            RepairAction(
                kind="diagnostic",
                variable=variable,
                suggestion=suggest_initialize(variable, side),
                address=access.address,
                nbytes=access.size,
                stack=access.stack,
            )
        )

    def _diagnose_race(self, finding: Finding) -> None:
        self.repairs.append(
            RepairAction(
                kind="diagnostic",
                variable=finding.variable,
                suggestion=suggest_ordering(),
                address=finding.address,
                nbytes=finding.size,
                stack=finding.stack,
            )
        )

    # -- results -----------------------------------------------------------------

    def transfers_performed(self) -> list[RepairAction]:
        return [r for r in self.repairs if r.kind == "transfer"]

    def diagnostics(self) -> list[RepairAction]:
        return [r for r in self.repairs if r.kind == "diagnostic"]

    def render_repairs(self) -> str:
        return "\n".join(r.render() for r in self.repairs)

    def reset(self) -> None:
        super().reset()
        self.repairs.clear()
