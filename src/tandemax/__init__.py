"""Max-plus algebra toolkit for tandem queueing system simulation."""

from .core import (
    E,
    EPS,
    MaxPlusMatrix,
    NotInvertibleError,
    ShapeError,
    inverse,
    oplus,
    otimes,
)
from .engine import (
    OpLedger,
    Trajectory,
    oracle_lindley,
    simulate,
)
from .models import (
    ModelConfigError,
    ServiceTimes,
    TandemSpec,
    build_transition,
    service_diag,
    shift_matrix,
    transition_comm_b0,
    transition_mfg_b0,
    transition_open_infinite,
)
from .solver import NilpotencyCertificate, nilpotency_index, star_truncated
from .sources import ServiceTimeSource, dump_trace, load_trace

__version__ = "0.1.0"
