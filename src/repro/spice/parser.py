"""SPICE netlist parser.

Grammar (case-insensitive; a practical subset of Berkeley SPICE):

* the first line is the title; ``*`` lines and ``;``/``$``-tails are
  comments; ``+`` continues the previous card;
* element cards by leading letter::

    Rxxx n1 n2 value
    Cxxx n1 n2 value [IC=volts]
    Vxxx n+ n- [DC] value
    Vxxx n+ n- PULSE(v1 v2 td tr tf pw [per])
    Vxxx n+ n- PWL(t1 v1 t2 v2 ...)
    Ixxx n+ n- <same drive forms>
    Sxxx p n cp cn [RON=] [ROFF=] [VON=] [VOFF=]
    Mxxx d g s modelname [NFIN=int]
    Yxxx free pinned modelname [STATE=P|AP]
    Xxxx node1 ... nodeN subcktname

* directives::

    .SUBCKT name port1 ... portN   /  .ENDS [name]
    .MODEL name NFET|PFET ([VTH0=] [SLOPE=] [ISPEC=] [DIBL=])
    .MODEL name MTJ ([TMR0=] [RA=] [VHALF=] [JC=] [DIAMETER=] ...)
    .PARAM name=value ...
    .IC V(node)=volts ...
    .TRAN tstop | .TRAN tstep tstop     (tstep = initial-step hint)
    .DC srcname start stop step
    .OP
    .MEASURE TRAN name MAX|MIN|AVG|PP|INTEG v(node)
    .MEASURE TRAN name WHEN v(node)=value [RISE|FALL]
    .END

``{param}`` references in any numeric position are substituted from
``.PARAM`` definitions.  Two FinFET models are built in: ``NFET20HP``
and ``PFET20HP`` (the calibrated cards of :mod:`repro.devices.ptm20`);
``MTJ_TABLE1`` likewise for the MTJ.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import NetlistError
from ..circuit import (
    Capacitor,
    Circuit,
    CurrentSource,
    Resistor,
    SubCircuit,
    VoltageControlledSwitch,
    VoltageSource,
)
from ..circuit.waveforms import PiecewiseLinear, Pulse, Waveform
from ..devices.finfet import FinFET, FinFETParams
from ..devices.mtj import MTJ, MTJParams, MTJState, MTJ_TABLE1
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..units import parse_quantity


@dataclass(frozen=True)
class TranCard:
    """A ``.TRAN`` request."""

    t_stop: float
    t_step: Optional[float] = None


@dataclass(frozen=True)
class DcCard:
    """A ``.DC`` source sweep request."""

    source: str
    start: float
    stop: float
    step: float

    def values(self) -> List[float]:
        if self.step <= 0:
            raise NetlistError(".DC step must be positive")
        out = []
        v = self.start
        # Inclusive of the endpoint within half a step (SPICE behaviour).
        while v <= self.stop + 0.5 * self.step:
            out.append(v)
            v += self.step
        return out


@dataclass(frozen=True)
class OpCard:
    """A ``.OP`` request."""


@dataclass(frozen=True)
class MeasureCard:
    """A ``.MEASURE TRAN`` post-processing request.

    Supported forms::

        .measure tran <name> MAX|MIN|AVG|PP v(node)
        .measure tran <name> INTEG v(node)
        .measure tran <name> WHEN v(node)=<value> [RISE|FALL]

    Evaluated by the runner against the deck's last transient result.
    """

    name: str
    kind: str                  # max / min / avg / pp / integ / when
    node: str
    target: Optional[float] = None
    direction: str = "rise"


AnalysisCard = Union[TranCard, DcCard, OpCard]


@dataclass
class ParsedDeck:
    """Everything extracted from one netlist."""

    title: str
    circuit: Circuit
    analyses: List[AnalysisCard] = field(default_factory=list)
    measures: List[MeasureCard] = field(default_factory=list)
    ic: Dict[str, float] = field(default_factory=dict)
    models: Dict[str, object] = field(default_factory=dict)
    subcircuits: Dict[str, SubCircuit] = field(default_factory=dict)
    params: Dict[str, float] = field(default_factory=dict)


#: Built-in device model cards usable without a .MODEL definition.
BUILTIN_MODELS: Dict[str, object] = {
    "nfet20hp": NFET_20NM_HP,
    "pfet20hp": PFET_20NM_HP,
    "mtj_table1": MTJ_TABLE1,
}

_PAREN_RE = re.compile(r"(\w+)\s*\((.*)\)\s*$", re.S)


def parse_file(path: "str | Path") -> ParsedDeck:
    """Parse a netlist file."""
    return parse_deck(Path(path).read_text())


def parse_deck(text: str) -> ParsedDeck:
    """Parse netlist ``text`` into a :class:`ParsedDeck`."""
    lines = _logical_lines(text)
    if not lines:
        raise NetlistError("empty deck")
    title = lines[0].strip()
    parser = _DeckParser(title)
    for line in lines[1:]:
        parser.feed(line)
    return parser.finish()


def logical_cards(text: str) -> List[Tuple[int, str]]:
    """``(first physical line, text)`` of every logical card.

    Comments are stripped and ``+`` continuations joined; a ``*``
    comment before any card holds the title's slot as an empty title.
    Never raises: a continuation before any card stays a card that
    starts with ``+``, which :func:`parse_deck` rejects.
    """
    out: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split(";")[0].split("$")[0].strip()
        if not stripped:
            continue
        if stripped.startswith("*"):
            if not out:
                out.append((lineno, ""))
            continue
        if stripped.startswith("+") and out:
            first, card = out[-1]
            out[-1] = (first, card + " " + stripped[1:].strip())
        else:
            out.append((lineno, stripped))
    return out


def _logical_lines(text: str) -> List[str]:
    """Strip comments, join ``+`` continuations."""
    cards = [card for _line, card in logical_cards(text)]
    if cards and cards[0].startswith("+"):
        raise NetlistError("continuation line before any card")
    return cards


def tokenize(line: str) -> List[str]:
    """Split a card into tokens, keeping ``fn(...)`` groups intact."""
    tokens: List[str] = []
    buf = ""
    depth = 0
    for ch in line:
        if ch == "(":
            depth += 1
            buf += ch
        elif ch == ")":
            depth -= 1
            buf += ch
        elif ch.isspace() and depth == 0:
            if buf:
                tokens.append(buf)
                buf = ""
        else:
            buf += ch
    if depth != 0:
        raise NetlistError(f"unbalanced parentheses: {line!r}")
    if buf:
        tokens.append(buf)
    return tokens


class _DeckParser:
    def __init__(self, title: str):
        self.deck = ParsedDeck(title=title, circuit=Circuit(title))
        self._current_sub: Optional[SubCircuit] = None
        self._ended = False

    # -- dispatch ---------------------------------------------------------
    def feed(self, line: str) -> None:
        if self._ended:
            return
        tokens = tokenize(line)
        if not tokens:
            return
        head = tokens[0].lower()
        if head.startswith("."):
            self._directive(head, tokens, line)
        else:
            self._element(head, tokens, line)

    def finish(self) -> ParsedDeck:
        if self._current_sub is not None:
            raise NetlistError(
                f".subckt {self._current_sub.name} never closed"
            )
        return self.deck

    # -- numeric helpers ----------------------------------------------------
    def _value(self, token: str) -> float:
        token = token.strip()
        if token.startswith("{") and token.endswith("}"):
            name = token[1:-1].strip().lower()
            try:
                return self.deck.params[name]
            except KeyError:
                raise NetlistError(f"undefined parameter: {name}") from None
        return parse_quantity(token)

    def _kwargs(self, tokens: Sequence[str]) -> Dict[str, str]:
        out = {}
        for token in tokens:
            if "=" not in token:
                raise NetlistError(f"expected key=value, got {token!r}")
            key, _, value = token.partition("=")
            out[key.lower()] = value
        return out

    # -- directives -----------------------------------------------------------
    def _directive(self, head: str, tokens: List[str], line: str) -> None:
        if head == ".end":
            self._ended = True
        elif head == ".subckt":
            if self._current_sub is not None:
                raise NetlistError("nested .subckt is not supported")
            if len(tokens) < 3:
                raise NetlistError(".subckt needs a name and ports")
            self._current_sub = SubCircuit(tokens[1].lower(),
                                           [t.lower() for t in tokens[2:]])
        elif head == ".ends":
            if self._current_sub is None:
                raise NetlistError(".ends without .subckt")
            self.deck.subcircuits[self._current_sub.name] = self._current_sub
            self._current_sub = None
        elif head == ".param":
            for token in tokens[1:]:
                key, _, value = token.partition("=")
                if not value:
                    raise NetlistError(f"malformed .param: {token!r}")
                self.deck.params[key.lower()] = self._value(value)
        elif head == ".model":
            self._model(tokens, line)
        elif head == ".ic":
            for token in tokens[1:]:
                match = re.match(r"(?i)v\(([^)]+)\)=(.+)", token)
                if not match:
                    raise NetlistError(f"malformed .ic entry: {token!r}")
                self.deck.ic[match.group(1).lower()] = self._value(
                    match.group(2)
                )
        elif head == ".tran":
            values = [self._value(t) for t in tokens[1:]]
            if len(values) == 1:
                self.deck.analyses.append(TranCard(t_stop=values[0]))
            elif len(values) >= 2:
                self.deck.analyses.append(
                    TranCard(t_stop=values[1], t_step=values[0])
                )
            else:
                raise NetlistError(".tran needs a stop time")
        elif head == ".dc":
            if len(tokens) != 5:
                raise NetlistError(".dc needs: source start stop step")
            self.deck.analyses.append(DcCard(
                source=tokens[1].lower(),
                start=self._value(tokens[2]),
                stop=self._value(tokens[3]),
                step=self._value(tokens[4]),
            ))
        elif head == ".op":
            self.deck.analyses.append(OpCard())
        elif head in (".measure", ".meas"):
            self._measure(tokens)
        else:
            raise NetlistError(f"unsupported directive: {head}")

    def _measure(self, tokens: List[str]) -> None:
        if len(tokens) < 5 or tokens[1].lower() != "tran":
            raise NetlistError(
                ".measure needs: tran <name> <MAX|MIN|AVG|PP|INTEG|WHEN>"
                " v(node)[=value]"
            )
        name = tokens[2].lower()
        kind = tokens[3].lower()
        expr = tokens[4]
        if kind in ("max", "min", "avg", "pp", "integ"):
            match = re.match(r"(?i)v\(([^)]+)\)$", expr)
            if not match:
                raise NetlistError(f"malformed .measure probe: {expr!r}")
            self.deck.measures.append(MeasureCard(
                name=name, kind=kind, node=match.group(1).lower(),
            ))
        elif kind == "when":
            match = re.match(r"(?i)v\(([^)]+)\)=(.+)$", expr)
            if not match:
                raise NetlistError(
                    f"malformed .measure WHEN expression: {expr!r}"
                )
            direction = "rise"
            if len(tokens) > 5:
                direction = tokens[5].lower()
                if direction not in ("rise", "fall"):
                    raise NetlistError(
                        f"WHEN direction must be RISE or FALL, "
                        f"got {tokens[5]!r}"
                    )
            self.deck.measures.append(MeasureCard(
                name=name, kind="when", node=match.group(1).lower(),
                target=self._value(match.group(2)), direction=direction,
            ))
        else:
            raise NetlistError(f"unsupported .measure kind: {kind}")

    def _model(self, tokens: List[str], line: str) -> None:
        if len(tokens) < 3:
            raise NetlistError(".model needs a name and a type")
        name = tokens[1].lower()
        rest = line.split(None, 2)[2]
        match = _PAREN_RE.match(rest.strip())
        if match:
            kind = match.group(1).lower()
            body = match.group(2)
            kwargs = self._kwargs(tokenize(body)) if body.strip() else {}
        else:
            kind = tokens[2].lower()
            kwargs = self._kwargs(tokens[3:])

        if kind in ("nfet", "pfet"):
            base = NFET_20NM_HP if kind == "nfet" else PFET_20NM_HP
            card = base.with_(
                vth0=self._opt(kwargs, "vth0", base.vth0),
                slope_factor=self._opt(kwargs, "slope", base.slope_factor),
                i_spec=self._opt(kwargs, "ispec", base.i_spec),
                dibl=self._opt(kwargs, "dibl", base.dibl),
                label=name,
            )
        elif kind == "mtj":
            base = MTJ_TABLE1
            card = base.with_(
                tmr0=self._opt(kwargs, "tmr0", base.tmr0),
                ra_product=self._opt(kwargs, "ra", base.ra_product),
                v_half=self._opt(kwargs, "vhalf", base.v_half),
                jc=self._opt(kwargs, "jc", base.jc),
                diameter=self._opt(kwargs, "diameter", base.diameter),
                tau0=self._opt(kwargs, "tau0", base.tau0),
                label=name,
            )
        else:
            raise NetlistError(f"unsupported model type: {kind}")
        self.deck.models[name] = card

    def _opt(self, kwargs: Dict[str, str], key: str,
             default: float) -> float:
        return self._value(kwargs[key]) if key in kwargs else default

    # -- elements -------------------------------------------------------------
    def _target(self):
        return self._current_sub if self._current_sub is not None \
            else self.deck.circuit

    def _element(self, head: str, tokens: List[str], line: str) -> None:
        builder = ELEMENT_BUILDERS.get(head[0])
        if builder is None:
            raise NetlistError(f"unsupported element card: {tokens[0]!r}")
        builder(self, tokens[0].lower(), tokens[1:], line)

    def _resistor(self, name, args, line):
        if len(args) != 3:
            raise NetlistError(f"{name}: R needs 2 nodes + value")
        self._target().add(Resistor(name, args[0].lower(), args[1].lower(),
                                    self._value(args[2])))

    def _capacitor(self, name, args, line):
        if len(args) < 3:
            raise NetlistError(f"{name}: C needs 2 nodes + value")
        ic = None
        rest = args[3:]
        if rest:
            kwargs = self._kwargs(rest)
            if "ic" in kwargs:
                ic = self._value(kwargs["ic"])
        self._target().add(Capacitor(name, args[0].lower(), args[1].lower(),
                                     self._value(args[2]), ic=ic))

    def _drive(self, name, args) -> Tuple[float, Optional[Waveform]]:
        """Parse the source drive: DC level, PULSE(...) or PWL(...)."""
        drive = args[:]
        if drive and drive[0].lower() == "dc":
            drive = drive[1:]
        if not drive:
            raise NetlistError(f"{name}: source needs a drive")
        spec = drive[0]
        match = _PAREN_RE.match(spec)
        if match is None:
            return self._value(spec), None
        fn = match.group(1).lower()
        values = [self._value(v) for v in
                  re.split(r"[\s,]+", match.group(2).strip()) if v]
        if fn == "pulse":
            if len(values) < 6:
                raise NetlistError(
                    f"{name}: PULSE needs v1 v2 td tr tf pw [per]"
                )
            v1, v2, td, tr, tf, pw = values[:6]
            per = values[6] if len(values) > 6 else None
            wave = Pulse(v1, v2, delay=td, rise=max(tr, 1e-15),
                         fall=max(tf, 1e-15), width=pw, period=per)
            return v1, wave
        if fn == "pwl":
            if len(values) < 2 or len(values) % 2:
                raise NetlistError(f"{name}: PWL needs t/v pairs")
            points = list(zip(values[0::2], values[1::2]))
            return points[0][1], PiecewiseLinear(points)
        raise NetlistError(f"{name}: unsupported drive {fn!r}")

    def _vsource(self, name, args, line):
        if len(args) < 3:
            raise NetlistError(f"{name}: V needs 2 nodes + drive")
        dc, wave = self._drive(name, args[2:])
        self._target().add(VoltageSource(name, args[0].lower(),
                                         args[1].lower(), dc=dc,
                                         waveform=wave))

    def _isource(self, name, args, line):
        if len(args) < 3:
            raise NetlistError(f"{name}: I needs 2 nodes + drive")
        dc, wave = self._drive(name, args[2:])
        self._target().add(CurrentSource(name, args[0].lower(),
                                         args[1].lower(), dc=dc,
                                         waveform=wave))

    def _switch(self, name, args, line):
        if len(args) < 4:
            raise NetlistError(f"{name}: S needs 4 nodes")
        kwargs = self._kwargs(args[4:]) if len(args) > 4 else {}
        self._target().add(VoltageControlledSwitch(
            name, args[0].lower(), args[1].lower(), args[2].lower(),
            args[3].lower(),
            r_on=self._opt(kwargs, "ron", 1.0),
            r_off=self._opt(kwargs, "roff", 1e12),
            v_on=self._opt(kwargs, "von", 1.0),
            v_off=self._opt(kwargs, "voff", 0.0),
        ))

    def _lookup_model(self, name: str, expected: type):
        model = self.deck.models.get(name, BUILTIN_MODELS.get(name))
        if model is None:
            raise NetlistError(f"unknown model: {name}")
        if not isinstance(model, expected):
            raise NetlistError(
                f"model {name} is not a {expected.__name__} card"
            )
        return model

    def _finfet(self, name, args, line):
        if len(args) < 4:
            raise NetlistError(f"{name}: M needs d g s + model")
        kwargs = self._kwargs(args[4:]) if len(args) > 4 else {}
        params = self._lookup_model(args[3].lower(), FinFETParams)
        nfin = int(self._opt(kwargs, "nfin", 1))
        self._target().add(FinFET(name, args[0].lower(), args[1].lower(),
                                  args[2].lower(), params, nfin))

    def _mtj(self, name, args, line):
        if len(args) < 2:
            raise NetlistError(f"{name}: Y(MTJ) needs free + pinned nodes")
        model_name = args[2].lower() if len(args) > 2 and "=" not in args[2] \
            else "mtj_table1"
        kw_start = 3 if (len(args) > 2 and "=" not in args[2]) else 2
        kwargs = self._kwargs(args[kw_start:]) if len(args) > kw_start else {}
        params = self._lookup_model(model_name, MTJParams)
        state_token = kwargs.get("state", "p").upper()
        try:
            state = MTJState(state_token)
        except ValueError:
            raise NetlistError(
                f"{name}: state must be P or AP, got {state_token!r}"
            ) from None
        self._target().add(MTJ(name, args[0].lower(), args[1].lower(),
                               params, state))

    def _subckt_instance(self, name, args, line):
        if len(args) < 2:
            raise NetlistError(f"{name}: X needs nodes + subckt name")
        sub_name = args[-1].lower()
        sub = self.deck.subcircuits.get(sub_name)
        if sub is None:
            raise NetlistError(f"unknown subcircuit: {sub_name}")
        nodes = [a.lower() for a in args[:-1]]
        if len(nodes) != len(sub.ports):
            raise NetlistError(
                f"{name}: {sub_name} has {len(sub.ports)} ports, "
                f"got {len(nodes)} nodes"
            )
        if self._current_sub is not None:
            raise NetlistError(
                "subcircuit instances inside .subckt are not supported"
            )
        sub.instantiate(self.deck.circuit, name,
                        dict(zip(sub.ports, nodes)))


#: Element-card letter -> the parser method that builds that element.
ELEMENT_BUILDERS = {
    "r": _DeckParser._resistor,
    "c": _DeckParser._capacitor,
    "v": _DeckParser._vsource,
    "i": _DeckParser._isource,
    "s": _DeckParser._switch,
    "m": _DeckParser._finfet,
    "y": _DeckParser._mtj,
    "x": _DeckParser._subckt_instance,
}
