"""RV407 fixture: module-level imports the module never reads."""

from __future__ import annotations

import json
import os.path
from typing import List, Optional, Tuple

import numpy as np

from repro.circuit import Circuit


def node_names(circuit: "Circuit") -> Optional[List[str]]:
    import csv    # a function-local import is not a module-level one
    return list(circuit.nodes) or None


def as_array(values) -> "np.ndarray":
    return values
