"""The benchmark's probes name trustsim functions; each name must still resolve.

``perfbench/run.py`` is read with ``ast`` rather than imported: importing it
pins the BLAS thread variables and glibc's mmap threshold for this process.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def probed_spans():
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS assignment in {RUN}")


def test_perfbench_spans_resolve():
    spans = probed_spans()
    assert spans
    for span, owner, attr in spans:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls, None)
            assert target is not None, f"{span}: {owner} does not resolve"
        assert callable(getattr(target, attr, None)), f"{span}: {owner}.{attr} does not resolve"
