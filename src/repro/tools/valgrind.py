"""Valgrind (memcheck) model: addressability tracking, no OpenMP semantics.

Memcheck's two shadow planes are A-bits (is this byte addressable?) and
V-bits (is this byte's value defined?).  Two properties of the real tool
shape what it can catch in the paper's evaluation (Table III: 6/16, the
buffer-overflow row only):

* **A-bit checking fires on every access**, so reads/writes landing outside
  any live heap block — where DRACC's overflowing kernels end up, since
  real allocators keep metadata gaps between blocks — are reported as
  "Invalid read/write".  This model tracks live extents per device (under
  host offloading, device memory is ordinary heap to Valgrind) and reports
  accesses touching unaddressable bytes.
* **V-bit violations are reported only at *use* points** (conditional
  jumps, syscalls), not at loads/stores; uninitialized data merely
  propagates.  An offloaded UUM whose garbage flows straight into output
  arrays therefore produces no report — which is why memcheck misses the
  UUM row.  We model this by propagating definedness through memcpy but
  never reporting on program reads (the simulated benchmarks have no
  V-bit-checking use points), keeping the V-bit plane for tests and for
  the leak/err summary.

Stale data (USD) is invisible by construction: every byte involved is
addressable and defined.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..observe import core as _obs
from .base import Tool
from .findings import Finding, FindingKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.records import Access, AllocationEvent, MemcpyEvent


class _Plane:
    """A/V bit planes for one allocation (byte granularity, like memcheck)."""

    __slots__ = ("base", "defined")

    def __init__(self, base: int, nbytes: int, *, defined: bool):
        self.base = base
        # True = defined.  Globals arrive defined (.bss is zeroed by the
        # loader); heap arrives undefined.
        self.defined = np.full(nbytes, defined, dtype=bool)

    @property
    def nbytes(self) -> int:
        return len(self.defined)

    @property
    def shadow_nbytes(self) -> int:
        # memcheck uses 2 bits/byte compressed; we count the model's arrays.
        return self.defined.nbytes


class ValgrindTool(Tool):
    """The memcheck model."""

    name = "valgrind"

    def __init__(self) -> None:
        super().__init__()
        # (device, base) -> plane; sorted bases per device for range lookup.
        self._planes: dict[tuple[int, int], _Plane] = {}
        self._bases: dict[int, list[int]] = {}
        self.invalid_free_count = 0

    # -- allocation tracking ----------------------------------------------

    def on_allocation(self, event: "AllocationEvent") -> None:
        from bisect import insort

        key = (event.device_id, event.address)
        if event.is_free:
            if key in self._planes:
                del self._planes[key]
                self._bases[event.device_id].remove(event.address)
            else:
                self.invalid_free_count += 1
                self.report(
                    Finding(
                        tool=self.name,
                        kind=FindingKind.BAD_FREE,
                        message=f"invalid free of {event.address:#x}",
                        device_id=event.device_id,
                        address=event.address,
                        stack=event.stack,
                        variable=_obs.variable_at(
                            event.device_id, event.address
                        ),
                    )
                )
            return
        self._planes[key] = _Plane(
            event.address, event.nbytes, defined=event.storage == "global"
        )
        insort(self._bases.setdefault(event.device_id, []), event.address)

    def _plane_for(self, device_id: int, address: int) -> _Plane | None:
        from bisect import bisect_right

        bases = self._bases.get(device_id)
        if not bases:
            return None
        i = bisect_right(bases, address)
        if not i:
            return None
        plane = self._planes[(device_id, bases[i - 1])]
        return plane if address < plane.base + plane.nbytes else None

    # -- accesses ---------------------------------------------------------------

    def on_access(self, access: "Access") -> None:
        # Valgrind is a *dynamic binary* instrumenter: it observes each
        # machine-level load/store separately and cannot exploit the bulk
        # slice events our compile-time-instrumentation model emits.  Every
        # element is therefore checked individually — which is also why the
        # paper measures Valgrind as the slowest tool (§VI.E).
        obs = _obs.ACTIVE
        if obs is not None and obs.metrics is not None:
            # Per-machine-access accounting: Valgrind pays per element.
            obs.metrics.count("tool.valgrind.element_checks", access.count)
        if access.count == 1:
            self._check_addressable(access, access.address, access.size)
        else:
            for addr in access.element_addresses().tolist():
                self._check_addressable(access, addr, access.size)
        # V-bit bookkeeping: writes define bytes; reads never report (see
        # module docstring) but a read of undefined memory propagates — we
        # have no destination to taint, so propagation ends here.
        if access.is_write:
            self._define_range(access)

    def _check_addressable(self, access: "Access", address: int, span: int) -> None:
        plane = self._plane_for(access.device_id, address)
        covered = 0
        if plane is not None:
            covered = min(span, plane.base + plane.nbytes - address)
        if covered >= span:
            return
        self.report(
            Finding(
                tool=self.name,
                kind=FindingKind.WILD,
                message=(
                    f"Invalid {'write' if access.is_write else 'read'} of size "
                    f"{access.size}: address {address + covered:#x} is not "
                    "inside any allocated block"
                ),
                device_id=access.device_id,
                thread_id=access.thread_id,
                address=address + covered,
                size=access.size,
                stack=access.stack,
                variable=_obs.variable_at(
                    access.device_id, address + covered
                ),
            )
        )

    def _define_range(self, access: "Access") -> None:
        stride = access.element_stride
        if access.count == 1 or stride == access.size:
            spans = [(access.address, access.span)]
        else:
            spans = [(a, access.size) for a in access.element_addresses().tolist()]
        for address, span in spans:
            plane = self._plane_for(access.device_id, address)
            if plane is None:
                continue
            lo = address - plane.base
            hi = min(lo + span, plane.nbytes)
            plane.defined[lo:hi] = True

    # -- memcpy: V-bit propagation (the interceptor) ----------------------------

    def on_memcpy(self, event: "MemcpyEvent") -> None:
        src = self._plane_for(event.src_device, event.src_address)
        dst = self._plane_for(event.dst_device, event.dst_address)
        if dst is None:
            return
        lo = event.dst_address - dst.base
        hi = min(lo + event.nbytes, dst.nbytes)
        if src is None:
            dst.defined[lo:hi] = True  # unknown source: assume defined
            return
        slo = event.src_address - src.base
        shi = slo + (hi - lo)
        dst.defined[lo:hi] = src.defined[slo:shi]

    # -- inspection ----------------------------------------------------------

    def defined_fraction(self, device_id: int, address: int, nbytes: int) -> float:
        """Fraction of the range's V-bits that are defined (for tests)."""
        plane = self._plane_for(device_id, address)
        if plane is None:
            return 0.0
        lo = address - plane.base
        return float(plane.defined[lo : lo + nbytes].mean())

    def shadow_bytes(self) -> int:
        return sum(p.shadow_nbytes for p in self._planes.values())
