"""Every site that the benchmark's tracer wraps still exists in the package.

`bench/spans.py` lists the functions it times (TIMED) and counts (COUNTED)
as (name, module, owner class or None, attribute).  Its tracer skips a
site whose attribute is gone, so a rename in `abcode` would silently drop
a layer from the traced numbers; this test makes the rename fail instead.
The tables are read with `ast`, so the benchmark is neither imported nor
changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# sites whose code is already gone, which the benchmark still lists
DEAD = {("abcode.code", None, "_bz_min_generic"),
        ("abcode.permdec", "LambdaElem", "as_permutation")}


def _sites():
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TIMED", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"TIMED", "COUNTED"}
    return [site[1:] for table in tables.values() for site in table]


SITES = [s for s in _sites() if s not in DEAD]


@pytest.mark.parametrize("module,owner,attr", SITES,
                         ids=[".".join(filter(None, s)) for s in SITES])
def test_bench_site_resolves(module, owner, attr):
    home = importlib.import_module(module)
    if owner is not None:
        home = getattr(home, owner)
    assert callable(getattr(home, attr, None))
