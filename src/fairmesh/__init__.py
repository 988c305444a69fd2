"""Fair-queueing schedulers, a flit-level wormhole mesh simulator, and
fairness/feasibility analysis tools."""

__version__ = "0.1.0"

from .core import Packet, PacketEvent, ServiceRecord, Trace
from .fairness import FairnessReport, fm_over_interval, rfb_estimate
from .meshsim import MeshConfig, SimReport, run_mesh
from .schedulers import Accounting, SchedulerKind, make_scheduler

__all__ = [
    "Accounting",
    "FairnessReport",
    "MeshConfig",
    "Packet",
    "PacketEvent",
    "ServiceRecord",
    "SimReport",
    "Trace",
    "fm_over_interval",
    "make_scheduler",
    "rfb_estimate",
    "run_mesh",
    "__version__",
]
