"""Every name the benchmark tracer wraps still exists, and the scan
result it reads keeps its shape.

`perfbench/spans.py` looks each name up without a default, so a renamed
or deleted function breaks traced benchmark runs.  The module imports
only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from campanato_lab import cli, functions, multiplier, phi
from campanato_lab.filtration import FiltrationTree, build_dyadic
from campanato_lab.functions import LeafFunction
from campanato_lab.norms import oscillation_scan

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = []
    for mod, names in spans.TARGETS.items():
        module = importlib.import_module(f"campanato_lab.{mod}")
        for name in names:
            if not callable(getattr(module, name, None)):
                missing.append(f"{mod}.{name}")
    for name in spans.LEAF_FUNCTION_BUILDERS:
        if not callable(getattr(functions, name, None)):
            missing.append(f"functions.{name}")
    for name in spans.LEAF_FUNCTION_METHODS:
        if not callable(getattr(LeafFunction, name, None)):
            missing.append(f"LeafFunction.{name}")
    for module, name in ((phi, "_quad"), (cli, "write_outputs"),
                         (multiplier, "default_test_family"),
                         (FiltrationTree, "level_arrays")):
        if not callable(getattr(module, name, None)):
            missing.append(f"{module.__name__}.{name}")
    assert not missing, missing


def test_scan_result_names_its_arithmetic_path():
    # the tracer reads result[0] of oscillation_scan to label a scan exact
    # or float
    tree = build_dyadic(3)
    f = LeafFunction(tree, [Fraction(k, 3) for k in range(tree.leaf_count)])
    exact = oscillation_scan(f, 1, phi.one())
    assert len(exact) == 4 and isinstance(exact[0], Fraction)
    flt = oscillation_scan(f, 1, phi.one(), exact=False)
    assert len(flt) == 4 and isinstance(flt[0], float)
