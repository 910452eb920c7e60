"""Finding forensics: flight recorder, provenance, reports, and diffing.

Only the recorder is imported eagerly — it depends on nothing but the
event/source layer.  The recorder is a sink of the observability core
(:mod:`repro.observe.core`), activated with ``scope(recorder=...)``.  The provenance/report/diff modules
import the tools layer and are loaded lazily on first attribute access.
"""

from .recorder import DEFAULT_CAPACITY, FlightRecorder, RecordedEvent, VariableRing

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "RecordedEvent",
    "VariableRing",
    "Provenance",
    "build_provenance",
    "explain",
    "DeliveryLedger",
]

_LAZY = {
    "Provenance": "provenance",
    "build_provenance": "provenance",
    "explain": "provenance",
    "DeliveryLedger": "ledger",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
