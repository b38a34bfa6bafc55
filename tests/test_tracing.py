"""The benchmark tracer's bindings exist in the package.

``benchmarks/spans.py`` wraps each ``TARGETS`` entry at the module
attribute its caller resolves, so renaming or moving one of those functions
breaks the traced benchmark run; this names the binding in seconds.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    missing = []
    for module, attr, _ in spans.TARGETS:
        # as Tracer.install looks it up
        try:
            owner, leaf = spans._binding(module, attr)
            found = callable(vars(owner)[leaf])
        except (ImportError, AttributeError, KeyError):
            found = False
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, "traced bindings missing: " + ", ".join(missing)
