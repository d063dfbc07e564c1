"""SPICE-deck text-level rules (RV3xx).

These rules work on a :class:`DeckSource` — the strict parser's own
card scan (:func:`repro.spice.parser.logical_cards`), which keeps
physical line numbers through ``+`` continuations and never raises.
That lets the linter report several problems at once (and point at
lines), where the strict parser in :mod:`repro.spice.parser` stops at
the first error.  RV300 still runs the strict parser so anything it
rejects surfaces as a diagnostic rather than a crash.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import NetlistError, ReproError
from ..spice.parser import (
    BUILTIN_MODELS,
    ELEMENT_BUILDERS,
    logical_cards,
    parse_deck,
    tokenize,
)
from ..units import SPICE_MULTIPLIERS
from .core import Finding, SourceLocation, rule

#: Unit names accepted verbatim after a number (multiplier one); any
#: other non-multiplier suffix is RV306-suspicious ("10x" is the classic
#:  HSPICE trap: silently parsed as 10).
UNIT_SUFFIXES = frozenset({
    "v", "volt", "volts", "s", "sec", "hz", "ohm", "ohms", "w", "j",
})

_NUMERIC_TOKEN_RE = re.compile(
    r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?([a-zA-Zµ]+)$"
)

_PARAM_REF_RE = re.compile(r"\{\s*([A-Za-z_]\w*)\s*\}")


@dataclass(frozen=True)
class DeckCard:
    """One logical card: joined continuations, first physical line."""

    line: int
    text: str

    def tokens(self) -> List[str]:
        """The strict parser's paren-aware token split; a plain
        whitespace split where it rejects unbalanced parentheses (RV300
        reports the imbalance)."""
        try:
            return tokenize(self.text)
        except NetlistError:
            return self.text.split()


class DeckSource:
    """Tolerantly-scanned deck text, the target object of RV3xx rules.

    Attributes
    ----------
    text:
        The raw deck text (fed to the strict parser by RV300).
    path:
        Display name of the deck (file path or a synthetic label).
    title:
        First logical line (empty when a ``*`` comment comes first).
    cards:
        All logical cards after the title, with line numbers.
    """

    def __init__(self, text: str, path: str = ""):
        self.text = text
        self.path = path
        cards = [DeckCard(line, card) for line, card in logical_cards(text)]
        self.title = cards[0].text if cards else ""
        self.cards = cards[1:]

    # -- structured views used by several rules -------------------------
    def subckt_defs(self) -> Dict[str, Tuple[DeckCard, List[str]]]:
        """``name -> (defining card, port list)`` for every ``.subckt``."""
        out: Dict[str, Tuple[DeckCard, List[str]]] = {}
        for card in self.cards:
            tokens = card.tokens()
            if tokens and tokens[0].lower() == ".subckt" and len(tokens) >= 2:
                out[tokens[1].lower()] = (card, [t.lower()
                                                for t in tokens[2:]])
        return out

    def instances(self) -> List[Tuple[DeckCard, str, List[str]]]:
        """``(card, subckt name, node list)`` for every ``X`` card."""
        out = []
        for card in self.cards:
            tokens = card.tokens()
            if tokens and tokens[0][0].lower() == "x" and len(tokens) >= 2:
                out.append((card, tokens[-1].lower(),
                            [t.lower() for t in tokens[1:-1]]))
        return out

    def element_cards(self) -> Iterator[Tuple[DeckCard, str, List[str]]]:
        """``(card, scope, tokens)`` for every element card.

        ``scope`` is ``""`` at top level or the enclosing subcircuit
        name inside ``.subckt``/``.ends`` blocks.
        """
        scope = ""
        for card in self.cards:
            tokens = card.tokens()
            if not tokens:
                continue
            head = tokens[0].lower()
            if head == ".subckt":
                scope = tokens[1].lower() if len(tokens) > 1 else "?"
            elif head == ".ends":
                scope = ""
            elif not head.startswith("."):
                yield card, scope, tokens


def _loc(card: DeckCard) -> SourceLocation:
    """Shorthand for a card's source location."""
    return SourceLocation(line=card.line, text=card.text)


@rule("RV300", "parse-error", "deck", "error",
      "The strict parser rejects the deck",
      "Everything the simulator would refuse to load is a lint error "
      "too; routing the parser exception through the report lets it "
      "appear next to the text-level findings instead of aborting them.")
def check_parse(deck: DeckSource) -> Iterator[Finding]:
    """Run the strict parser; report its rejection, if any."""
    try:
        parse_deck(deck.text)
    except ReproError as exc:
        yield Finding(subject=deck.path or "deck", message=str(exc))


@rule("RV301", "undefined-subckt", "deck", "error",
      "An X card instantiates a subcircuit that is never defined",
      "The parser stops at the first unknown subcircuit; scanning all "
      "instances reports every stale name after a rename in one pass.")
def check_undefined_subckt(deck: DeckSource) -> Iterator[Finding]:
    """Flag X cards whose subcircuit name has no ``.subckt``."""
    defined = set(deck.subckt_defs())
    for card, sub_name, _nodes in deck.instances():
        if sub_name not in defined:
            yield Finding(
                subject=card.tokens()[0].lower(),
                message=(f"instance {card.tokens()[0]} references "
                         f"undefined subcircuit {sub_name!r}"),
                location=_loc(card),
            )


@rule("RV302", "unused-subckt", "deck", "warning",
      "A .SUBCKT definition is never instantiated",
      "Dead subcircuit definitions usually mean an instance card was "
      "deleted or renamed but the definition was forgotten — noise that "
      "hides real topology during deck review.")
def check_unused_subckt(deck: DeckSource) -> Iterator[Finding]:
    """Flag ``.subckt`` definitions with zero X instances."""
    used = {sub for _, sub, _ in deck.instances()}
    for name, (card, _ports) in sorted(deck.subckt_defs().items()):
        if name not in used:
            yield Finding(
                subject=name,
                message=f"subcircuit {name!r} is defined but never "
                        "instantiated",
                location=_loc(card),
            )


@rule("RV303", "subckt-arity", "deck", "error",
      "An X card's node count does not match the subcircuit's ports",
      "Port-count mismatches scramble every connection of the instance; "
      "catching them with both line numbers beats the parser's "
      "one-at-a-time error.")
def check_subckt_arity(deck: DeckSource) -> Iterator[Finding]:
    """Flag X cards whose node list length differs from the port list."""
    defs = deck.subckt_defs()
    for card, sub_name, nodes in deck.instances():
        if sub_name not in defs:
            continue   # RV301's finding
        _def_card, ports = defs[sub_name]
        if len(nodes) != len(ports):
            yield Finding(
                subject=card.tokens()[0].lower(),
                message=(f"instance {card.tokens()[0]} passes "
                         f"{len(nodes)} node(s) to {sub_name!r}, which "
                         f"declares {len(ports)} port(s): "
                         f"{' '.join(ports)}"),
                location=_loc(card),
            )


@rule("RV304", "duplicate-element", "deck", "error",
      "Two element cards in one scope share a name",
      "The netlist builder rejects the second card; reporting both "
      "occurrences with line numbers makes copy-paste slips obvious.")
def check_duplicate_elements(deck: DeckSource) -> Iterator[Finding]:
    """Flag repeated element names within one (sub)circuit scope."""
    seen: Dict[Tuple[str, str], DeckCard] = {}
    for card, scope, tokens in deck.element_cards():
        name = tokens[0].lower()
        key = (scope, name)
        if key in seen:
            where = f" inside .subckt {scope}" if scope else ""
            yield Finding(
                subject=name,
                message=(f"element {name!r} defined again{where}; first "
                         f"defined on line {seen[key].line}"),
                location=_loc(card),
            )
        else:
            seen[key] = card
    # Unknown card letters are a parse error (RV300) but deserve a
    # location, which the strict parser cannot give.
    for card, _scope, tokens in deck.element_cards():
        if tokens[0][0].lower() not in ELEMENT_BUILDERS:
            yield Finding(
                subject=tokens[0].lower(),
                message=(f"unknown element card letter "
                         f"{tokens[0][0]!r} in {tokens[0]!r}"),
                location=_loc(card),
            )


@rule("RV305", "unused-param", "deck", "warning",
      "A .PARAM is defined but never referenced",
      "An unused parameter often means a {braced} reference was "
      "overwritten by a literal during debugging and never restored — "
      "the deck silently stops following the parameter sweep.")
def check_unused_params(deck: DeckSource) -> Iterator[Finding]:
    """Flag ``.param`` names with no ``{name}`` reference anywhere."""
    defined: Dict[str, DeckCard] = {}
    for card in deck.cards:
        tokens = card.tokens()
        if tokens and tokens[0].lower() == ".param":
            for token in tokens[1:]:
                key, _, value = token.partition("=")
                if value:
                    defined.setdefault(key.lower(), card)
    if not defined:
        return
    referenced = {m.group(1).lower()
                  for card in deck.cards
                  for m in _PARAM_REF_RE.finditer(card.text)}
    for name, card in sorted(defined.items()):
        if name not in referenced:
            yield Finding(
                subject=name,
                message=f"parameter {name!r} is defined but never "
                        "referenced",
                location=_loc(card),
            )


def _suspicious_suffix(token: str) -> Optional[str]:
    """The unrecognised suffix of a numeric token, or None if fine."""
    match = _NUMERIC_TOKEN_RE.match(token)
    if match is None:
        return None
    suffix = match.group(1).lower()
    if suffix in UNIT_SUFFIXES:
        return None
    if any(suffix.startswith(p) for p, _ in SPICE_MULTIPLIERS):
        return None
    return suffix


@rule("RV306", "suspicious-suffix", "deck", "warning",
      "A numeric value carries an unrecognised suffix",
      "SPICE silently treats an unknown suffix as a unit name with "
      "multiplier one, so '10x' parses as 10 — a classic way to be off "
      "by orders of magnitude without any error message.")
def check_suspicious_suffixes(deck: DeckSource) -> Iterator[Finding]:
    """Flag numeric tokens whose suffix is neither multiplier nor unit.

    Element cards and value-carrying directives (``.tran 10x`` is just
    as silent a trap as ``r1 a b 10x``) are both scanned; ``.subckt``
    and ``.ends`` are skipped since their tokens are names, not values.
    """
    for card in deck.cards:
        tokens = card.tokens()
        if not tokens or tokens[0].lower() in (".subckt", ".ends"):
            continue
        for token in tokens[1:]:
            # Look inside key=value pairs and fn( ... ) groups too.
            candidates = [token.partition("=")[2] or token]
            inner = re.match(r"\w+\((.*)\)$", candidates[0], re.S)
            if inner:
                candidates = [t for t in
                              re.split(r"[\s,]+", inner.group(1)) if t]
            for value in candidates:
                suffix = _suspicious_suffix(value)
                if suffix is not None:
                    yield Finding(
                        subject=tokens[0].lower(),
                        message=(f"value {value!r} on card "
                                 f"{tokens[0]} has unrecognised suffix "
                                 f"{suffix!r}; it parses as multiplier "
                                 "1, which is rarely intended"),
                        location=_loc(card),
                    )


@rule("RV307", "unknown-model", "deck", "error",
      "A device card references a model that is never defined",
      "The parser reports only the first unknown model; checking all "
      "M/Y cards against .MODEL definitions and the built-in cards "
      "reports every stale reference at once, with line numbers.")
def check_unknown_models(deck: DeckSource) -> Iterator[Finding]:
    """Flag M/Y cards whose model has no ``.model`` and is not built in."""
    defined: Set[str] = set(BUILTIN_MODELS)
    for card in deck.cards:
        tokens = card.tokens()
        if tokens and tokens[0].lower() == ".model" and len(tokens) >= 2:
            defined.add(tokens[1].lower())
    for card, _scope, tokens in deck.element_cards():
        letter = tokens[0][0].lower()
        model: Optional[str] = None
        if letter == "m" and len(tokens) >= 5:
            model = tokens[4].lower()
        elif letter == "y" and len(tokens) >= 4 and "=" not in tokens[3]:
            model = tokens[3].lower()
        if model is not None and model not in defined:
            yield Finding(
                subject=tokens[0].lower(),
                message=(f"device {tokens[0]} references unknown model "
                         f"{model!r}"),
                location=_loc(card),
            )
