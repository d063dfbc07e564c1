"""SPICE-deck front end.

Parses classic SPICE netlists (the lingua franca of the paper's domain)
into :class:`repro.circuit.Circuit` objects and executes their analysis
cards with :mod:`repro.analysis`:

* elements: ``R``, ``C`` (with ``IC=``), ``V``/``I`` (DC / ``PULSE`` /
  ``PWL``), ``S`` (voltage-controlled switch), ``M`` (FinFET, via
  ``.MODEL`` cards or the built-in 20 nm cards), ``Y`` (MTJ macromodel)
  and ``X`` subcircuit instances;
* directives: ``.SUBCKT``/``.ENDS``, ``.MODEL``, ``.PARAM``, ``.IC``,
  ``.TRAN``, ``.DC``, ``.OP``, ``.END``, comments and ``+`` line
  continuation.

Entry points: :func:`parse_deck` (text -> :class:`ParsedDeck`) and
:func:`run_deck` (execute every analysis card).
"""

from .. import _lazy_exports

_EXPORTS = {
    "ParsedDeck": ".parser",
    "parse_deck": ".parser",
    "parse_file": ".parser",
    "DeckResults": ".runner",
    "run_deck": ".runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
