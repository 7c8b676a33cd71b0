"""Shared constants and small helpers for sizes, rates, and time.

Times throughout the library are floats in seconds; rates are bytes per
second; sizes are bytes.  These helpers exist so scenario code can say
``kbit(64)`` instead of sprinkling magic numbers.
"""

from __future__ import annotations

#: Conventional Ethernet maximum segment size (bytes of TCP payload).
DEFAULT_MSS = 512

#: Maximum segment size on a local Ethernet without IP/TCP options.
ETHERNET_MSS = 1460

#: TCP sequence numbers live in a 32-bit space.
SEQ_SPACE = 2**32

MICROSECOND = 1e-6
MILLISECOND = 1e-3


def kbit(n: float) -> float:
    """Return a rate of *n* kilobits/second in bytes/second."""
    return n * 1000.0 / 8.0


def mbit(n: float) -> float:
    """Return a rate of *n* megabits/second in bytes/second."""
    return n * 1e6 / 8.0


def kbyte(n: float) -> int:
    """Return *n* kilobytes (powers of two, as the paper uses) in bytes."""
    return int(n * 1024)


def msec(n: float) -> float:
    """Return *n* milliseconds in seconds."""
    return n * MILLISECOND


def usec(n: float) -> float:
    """Return *n* microseconds in seconds."""
    return n * MICROSECOND


def seq_add(seq: int, n: int) -> int:
    """Add *n* to sequence number *seq*, wrapping mod 2**32."""
    return (seq + n) % SEQ_SPACE


def seq_diff(a: int, b: int) -> int:
    """Return the signed distance from *b* to *a* in sequence space.

    The result is in ``[-2**31, 2**31)``; positive means *a* is "after" *b*.
    """
    d = (a - b) % SEQ_SPACE
    if d >= SEQ_SPACE // 2:
        d -= SEQ_SPACE
    return d


# The comparisons below run millions of times per identification run,
# so each tests the residue ``(a - b) % 2**32`` against 2**31 inline
# rather than calling seq_diff: ``seq_diff(a, b) < 0`` exactly when the
# residue is at least 2**31, and ``== 0`` exactly when it is 0.


def seq_lt(a: int, b: int) -> bool:
    """True if sequence number *a* precedes *b* (RFC 793 comparison)."""
    return (a - b) % 2**32 >= 2**31


def seq_le(a: int, b: int) -> bool:
    """True if sequence number *a* precedes or equals *b*."""
    d = (a - b) % 2**32
    return d == 0 or d >= 2**31


def seq_gt(a: int, b: int) -> bool:
    """True if sequence number *a* follows *b*."""
    return 0 < (a - b) % 2**32 < 2**31


def seq_ge(a: int, b: int) -> bool:
    """True if sequence number *a* follows or equals *b*."""
    return (a - b) % 2**32 < 2**31


def seq_max(a: int, b: int) -> int:
    """Return whichever of two sequence numbers is later."""
    return a if seq_ge(a, b) else b


def seq_min(a: int, b: int) -> int:
    """Return whichever of two sequence numbers is earlier."""
    return a if seq_le(a, b) else b
