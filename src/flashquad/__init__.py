"""flashquad: a multi-version 81-way region quadtree on simulated NOR flash.

The pieces, bottom up:

- ``flashsim``   bit-accurate serial NOR flash array simulator
- ``codec``      256-byte page layouts (nodes, leaf lists, objects, versions) and update packages
- ``geometry``   exact integer predicates on the 9x9 recursive grid
- ``tree``       read handle, structure walker, copy-on-write editor
- ``store``      version directory, allocator, gc, dedup, update packages
- ``dataset``    text datasets, traces, seeded generators
- ``replay``     drive replay with page-IO accounting
- ``cli``        the ``flashquad`` command

The names most callers need are re-exported here.
"""

from .errors import (
    BitViolationError,
    ConflictError,
    DomainError,
    FlashFullError,
    FlashQuadError,
    FormatError,
    IntegrityError,
    NotFoundError,
    ParseError,
    PowerLossError,
    RangeError,
    RelocationError,
    SessionError,
    VersionConflictError,
    WearOutError,
)
from .flashsim import FlashDevice, FlashGeometry
from .geometry import WORLD_SIZE, kernel_name
from .tree import BuildParams, Handle, QueryResult, StatsReport
from .store import Session, Store
from .dataset import (
    Gantry,
    TraceStep,
    Zone,
    generate_dataset,
    generate_trace,
    parse_dataset,
    parse_trace,
)
from .replay import ReplayReport, replay

__version__ = "0.1.0"

__all__ = [
    "BitViolationError",
    "BuildParams",
    "ConflictError",
    "DomainError",
    "FlashDevice",
    "FlashFullError",
    "FlashGeometry",
    "FlashQuadError",
    "FormatError",
    "Gantry",
    "Handle",
    "IntegrityError",
    "NotFoundError",
    "ParseError",
    "PowerLossError",
    "QueryResult",
    "RangeError",
    "RelocationError",
    "ReplayReport",
    "Session",
    "SessionError",
    "StatsReport",
    "Store",
    "TraceStep",
    "VersionConflictError",
    "WORLD_SIZE",
    "WearOutError",
    "Zone",
    "__version__",
    "generate_dataset",
    "generate_trace",
    "kernel_name",
    "parse_dataset",
    "parse_trace",
    "replay",
]
