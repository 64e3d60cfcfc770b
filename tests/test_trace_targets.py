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
from campanato_lab.filtration import (FiltrationTree, build_dyadic,
                                      build_from_spec)
from campanato_lab.functions import LeafFunction
from campanato_lab.norms import campanato_norm, oscillation_scan

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
    # the tracer rebinds these on LeafFunction itself and reads
    # from_float_array's function out of the classmethod in its __dict__
    for name in spans.LEAF_FUNCTION_METHODS:
        if not callable(vars(LeafFunction).get(name)):
            missing.append(f"LeafFunction.{name}")
    if not isinstance(vars(LeafFunction).get("from_float_array"),
                      classmethod):
        missing.append("LeafFunction.from_float_array (classmethod)")
    for module, name in ((phi, "_quad"), (cli, "write_outputs"),
                         (multiplier, "default_test_family"),
                         (FiltrationTree, "level_arrays")):
        if not callable(getattr(module, name, None)):
            missing.append(f"{module.__name__}.{name}")
    assert not missing, missing


def test_scan_result_names_its_arithmetic_path():
    # the tracer reads result[0] of oscillation_scan to label a scan exact
    # or float, and the deep-norms workload requires an exact norm to be a
    # Fraction: on a dyadic tree and on a rational split tree with thirds
    thirds = build_from_spec({"fractions": ["1/3", "2/3"],
                              "children": [{"fractions": ["1/4", "3/4"]},
                                           {"persist": None}]})
    for tree in (build_dyadic(3), thirds):
        f = LeafFunction(tree, [Fraction(k, 3) for k in range(tree.leaf_count)])
        exact = oscillation_scan(f, 1, phi.one())
        assert len(exact) == 4 and isinstance(exact[0], Fraction)
        assert isinstance(campanato_norm(f, 1, phi.one()).value, Fraction)
        flt = oscillation_scan(f, 1, phi.one(), exact=False)
        assert len(flt) == 4 and isinstance(flt[0], float)
        assert isinstance(campanato_norm(f, 1, phi.one(), exact=False).value,
                          float)
