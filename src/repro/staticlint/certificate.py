"""Safety certificates: the bridge from static proof to dynamic pruning.

A :class:`SafetyCertificate` names the variables the linter proved
mapping-issue-free on every path of a program's static twin.  The dynamic
detector accepts one through ``Arbalest(certificate=...)`` and skips
shadow-cell allocation and VSM transitions for certified variables — the
static-assisted mode (after Marzen et al.: static dataflow over map
clauses can *prove* mappings correct, not just find bugs).

Certification is deliberately conservative.  A variable is excluded if it
has any finding (even a may-finding), if a ``PointerSwap`` ever touches
its name (the name↔storage binding is then unreliable — exactly the
503.postencil weakness, so postencil's arrays are never certified), or if
its refcount interval hit the widening cap (the analysis no longer knows
when the mapping dies).  Soundness on DRACC — no dynamic finding ever
lands on a certified variable — is asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class SectionCert:
    """A sub-variable certificate: ``var[lo:hi)`` proven issue-free.

    Emitted for variables whose only findings are OVERFLOW accesses past
    the mapped section: the guaranteed-mapped element interval is still
    def-use consistent on every path, so the detector may skip VSM
    transitions inside it while the §IV.D bounds check keeps firing on
    the out-of-section accesses that earned the finding.  ``affine``
    carries the rendered constraint when the section came from an affine
    map clause (informational; ``lo``/``hi`` are its concrete hull).
    """

    var: str
    lo: int
    hi: int
    length: int
    affine: str = ""

    def render(self) -> str:
        constraint = f" ({self.affine})" if self.affine else ""
        return f"{self.var}[{self.lo}:{self.hi}]/{self.length}{constraint}"


@dataclass(frozen=True)
class SafetyCertificate:
    """Variables of one program proven mapping-issue-free on every path.

    ``sections`` adds sub-variable grants for variables that could not be
    whole-certified (see :class:`SectionCert`).
    """

    program: str
    variables: frozenset[str]
    sections: tuple[SectionCert, ...] = ()

    def covers(self, name: str) -> bool:
        return name in self.variables

    def __contains__(self, name: str) -> bool:
        return name in self.variables

    def __len__(self) -> int:
        return len(self.variables)

    def render(self) -> str:
        parts = []
        if self.variables:
            names = ", ".join(sorted(self.variables))
            parts.append(f"certified {{{names}}}")
        if self.sections:
            secs = ", ".join(c.render() for c in self.sections)
            parts.append(f"sections {{{secs}}}")
        if not parts:
            return f"{self.program}: nothing certified"
        return f"{self.program}: " + "; ".join(parts)


@lru_cache(maxsize=1)
def dracc_certificates() -> dict[str, SafetyCertificate]:
    """Certificate per DRACC benchmark that has a static twin.

    Keyed by the dynamic suite's benchmark name (``DRACC_OMP_NNN``); the
    hybrid harness and the certificate-pruned detector runs look up
    certificates here.
    """
    from ..ompsan.programs import BUGGY_PROGRAMS, CLEAN_PROGRAMS
    from .analyzer import lint

    certs: dict[str, SafetyCertificate] = {}
    for table in (BUGGY_PROGRAMS, CLEAN_PROGRAMS):
        for factory in table.values():
            program = factory()
            certs[program.name] = lint(program).certificate
    return certs


@lru_cache(maxsize=1)
def spec_certificates() -> dict[str, SafetyCertificate]:
    """Certificate per SPEC ACCEL workload twin (for the Fig-8 bench).

    polbm and 503.postencil swap buffers by name each iteration, so their
    arrays are tainted and their certificates are empty — the bench then
    honestly shows no speedup for them.
    """
    from ..ompsan.programs import SPEC_PROGRAMS
    from .analyzer import lint

    certs: dict[str, SafetyCertificate] = {}
    for short_name, factory in SPEC_PROGRAMS.items():
        certs[short_name] = lint(factory()).certificate
    return certs
