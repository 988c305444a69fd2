"""Fair-queueing schedulers, a flit-level wormhole mesh simulator, and
fairness/feasibility analysis tools; each public name loads its module on first read."""

from importlib import import_module

__version__ = "0.1.0"


def _lazy(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """A module's `__getattr__` and `__dir__` (PEP 562) that import each name `homes` lists
    under a fairmesh module on its first read, and keep it in `namespace`, the module's globals."""
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = getattr(import_module(f"{__name__}.{home[name]}"), name)
        return namespace[name]
    return __getattr__, lambda: sorted({*namespace, *home})


__getattr__, __dir__ = _lazy(globals(), {
    "core": ("Accounting", "Packet", "PacketEvent", "SchedulerKind", "ServiceRecord", "Trace"),
    "fairness": ("FairnessReport", "rfb_estimate"),
    "meshsim": ("MeshConfig", "SimReport", "run_mesh"),
    "schedulers": ("make_scheduler",),
})

__all__ = [
    "Accounting",
    "FairnessReport",
    "MeshConfig",
    "Packet",
    "PacketEvent",
    "ServiceRecord",
    "SimReport",
    "Trace",
    "make_scheduler",
    "rfb_estimate",
    "run_mesh",
    "__version__",
]
