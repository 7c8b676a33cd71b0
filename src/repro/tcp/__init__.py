"""TCP implementations under study.

The stacks are parameterized by :class:`repro.tcp.params.TCPBehavior`,
a catalog of every sender/receiver idiosyncrasy the paper documents
(§§8–10).  :mod:`repro.tcp.catalog` registers the concrete
implementations of Table 1 plus the §10 additions.
"""

from repro.tcp.params import TCPBehavior
from repro.tcp.catalog import CATALOG, get_behavior, implementation_names

__all__ = [
    "TCPBehavior",
    "CATALOG",
    "get_behavior",
    "implementation_names",
    "BulkSender",
    "BulkReceiver",
    "run_bulk_transfer",
]


def __getattr__(name: str):
    # The simulated stacks load on first use (PEP 562): analysis-only
    # commands import the catalog without the network simulator.
    if name in ("BulkSender", "BulkReceiver", "run_bulk_transfer"):
        from repro.tcp import connection
        return getattr(connection, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
