"""The tolerance table is the package's single source of float thresholds."""

import io
import re
import tokenize
from pathlib import Path

from mmot import tolerances

PACKAGE = Path(tolerances.__file__).resolve().parent


def test_float_thresholds_live_only_in_the_tolerance_table():
    # a float literal with a negative exponent (1e-9, 2.5E-3) outside
    # tolerances.py is a threshold that bypasses the table
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        stray += [
            f"{path.name}:{tok.start[0]}: {tok.string}"
            for tok in tokens
            if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string)
        ]
    assert stray == []
