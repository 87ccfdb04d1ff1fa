"""Multilevel residual networks: tensor autodiff engine, graph builder,
structural analysis, drop-path regularization and a CPU training harness.

Submodule imports are lazy so the CLI can pin BLAS thread counts through the
environment before numpy is first loaded.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "Tensor": "tensor",
    "Parameter": "tensor",
    "BatchNormState": "tensor",
    "backward": "tensor",
    "ArchConfig": "arch",
    "ResolvedPlan": "arch",
    "ProjectionSpec": "arch",
    "resolve_config": "arch",
    "build": "arch",
    "Graph": "graph",
    "forward": "graph",
    "SurvivalSchedule": "stochastic_depth",
    "GateVector": "stochastic_depth",
    "survival_schedule": "stochastic_depth",
    "sample_gates": "stochastic_depth",
    "count_params": "analysis",
    "count_paths": "analysis",
    "Dataset": "data",
    "load_cifar": "data",
    "synthetic_dataset": "data",
    "save_checkpoint": "data",
    "load_checkpoint": "data",
    "TrainConfig": "train",
    "MetricsLog": "train",
    "evaluate": "train",
    "lr_at": "train",
    "sgd_step": "train",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    mod = importlib.import_module(f".{module}", __name__)
    value = getattr(mod, name)
    globals()[name] = value
    return value
