"""Fair-queueing schedulers, a flit-level wormhole mesh simulator, and
fairness/feasibility analysis tools."""

__version__ = "0.1.0"

from .core import Accounting, Packet, PacketEvent, SchedulerKind, ServiceRecord, Trace
from .fairness import FairnessReport, rfb_estimate
from .meshsim import MeshConfig, SimReport, run_mesh
from .schedulers import make_scheduler

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
