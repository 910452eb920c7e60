"""The tool set: the one name → factory table behind every command.

Table III, the Fig-8/9 matrix, ``repro report`` and the analysis server
all attach tools by these names.  The module sits outside ``harness`` so
the server can host tools without importing the experiment harness.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..core.detector import Arbalest
from .archer import ArcherTool
from .asan import AsanTool
from .base import Tool
from .msan import MsanTool
from .valgrind import ValgrindTool

__all__ = ["TOOL_FACTORIES", "TOOL_ORDER", "resolve_tools"]

#: Tool name -> factory; the key order is Table III's column order.
TOOL_FACTORIES: dict[str, Callable[[], Tool]] = {
    "arbalest": Arbalest,
    "valgrind": ValgrindTool,
    "archer": ArcherTool,
    "asan": AsanTool,
    "msan": MsanTool,
}

#: Evaluation order of Table III's columns.
TOOL_ORDER = tuple(TOOL_FACTORIES)


def resolve_tools(names: Iterable[str]) -> tuple[str, ...]:
    """Validate a tool selection and return it as a tuple.

    Raises :exc:`ValueError` naming every unknown tool and the valid
    choices — the one message every command prints for a bad selection.
    """
    names = tuple(names)
    unknown = [name for name in names if name not in TOOL_FACTORIES]
    if unknown:
        raise ValueError(
            f"unknown tool(s) {', '.join(unknown)} "
            f"(valid choices: {', '.join(sorted(TOOL_FACTORIES))})"
        )
    return names
