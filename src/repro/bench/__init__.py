"""Benchmark harness: regenerates every table and figure of the paper."""

#: Deferred (PEP 562): the full harness pulls in every experiment module;
#: the smoke CLI path (`python -m repro.bench --smoke`) needs none of it,
#: and package ``__init__`` runs before ``__main__`` gets a say.
_LAZY_SUBMODULE = {
    "ExperimentReport": "harness",
    "fig8_shape_checks": "harness",
    "fig9_shape_checks": "harness",
    "fig10_shape_checks": "harness",
    "run_all": "harness",
    "PAPER_SIZES": "reporting",
    "Row": "reporting",
    "ShapeCheck": "reporting",
    "check_shapes": "reporting",
    "render_table": "reporting",
    "size_label": "reporting",
}


def __getattr__(name: str):
    submodule = _LAZY_SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ExperimentReport",
    "fig8_shape_checks",
    "fig9_shape_checks",
    "fig10_shape_checks",
    "run_all",
    "PAPER_SIZES",
    "Row",
    "ShapeCheck",
    "check_shapes",
    "render_table",
    "size_label",
]
