"""perfbench's span tracer rebinds robokit functions by name (`perfbench/spans.py`
`TARGETS`). Renaming or deleting one of them must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attr: str, kind: str):
    """The traced object, or None when `module.attr` no longer names one (a module
    that is gone raises ImportError)."""
    mod = importlib.import_module(module)
    if kind in ("method", "static"):
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name, type).__dict__.get(meth)
    return getattr(mod, attr, None)


def _bindings(targets):
    """Every name in every robokit module and every traced class, by identity."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "robokit" or name.startswith("robokit."))]
    owners += [getattr(importlib.import_module(module), attr.split(".")[0])
               for _, module, attr, kind in targets if kind in ("method", "static")]
    return {(id(o), key): value for o in owners for key, value in list(vars(o).items())}


def test_trace_targets_resolve_and_are_restored():
    spans = _load_spans()
    originals = {name: _resolve(module, attr, kind) for name, module, attr, kind in spans.TARGETS}
    missing = [f"{name} ({module}.{attr})" for name, module, attr, _ in spans.TARGETS
               if originals[name] is None]
    assert not missing, f"perfbench trace targets that no longer resolve: {missing}"

    before = _bindings(spans.TARGETS)
    tracer = spans.Tracer()
    try:
        tracer.install()
        unwrapped = [name for name, module, attr, kind in spans.TARGETS
                     if _resolve(module, attr, kind) is originals[name]]
        assert not unwrapped, f"trace targets left unwrapped by install(): {unwrapped}"
    finally:
        tracer.uninstall()
    after = _bindings(spans.TARGETS)
    assert after.keys() == before.keys()
    changed = sorted(key for owner, key in before if after[owner, key] is not before[owner, key])
    assert not changed, f"names not restored by uninstall(): {changed}"
