"""Shared domain types: packets, service records, traces, and the enums of
the disciplines and their accounting modes.

Packets and service records are immutable tuples of their fields, checked
as they are built, so a record equals the plain tuple of its values.

A Trace collects the service history of one output link.  Service records
never overlap because the link transmits one packet at a time; packet-level
inject/deliver events ride along so backlog and latency can be reconstructed
without re-running the simulation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from numbers import Integral, Real
from operator import attrgetter
from typing import Iterable, NamedTuple, TextIO

FlowId = int


class Accounting(Enum):
    PACKET_SIZE = "packet_size"
    OCCUPATION = "channel_occupation"


class SchedulerKind(Enum):
    RR = "rr"
    DRR = "drr"
    ERR = "err"
    EBRR = "ebrr"
    CARR = "carr"


def is_int(x) -> bool:
    """An integer that is not a bool (a config's true/false is no count)."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def is_real(x) -> bool:
    """A real number that is not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """A finite real number that is not a bool (JSON's NaN and Infinity are
    not, nor is an integer too large for a float)."""
    try:
        return is_real(x) and math.isfinite(x)
    except OverflowError:
        return False


class TraceError(Exception):
    """A trace operation would violate record ordering, or would read the
    records of a trace that keeps none."""


def _frozen(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _checked_make(cls, fields):
    return cls(*fields)  # so that `_make` and `_replace` check, as `__new__` does


class _PacketFields(NamedTuple):
    id: int
    flow: FlowId
    size: int
    inject_time: int = 0


class Packet(_PacketFields):
    """One unit of traffic, `size` service units (flits or bytes) long."""

    __slots__ = ()
    __setattr__ = _frozen
    _make = classmethod(_checked_make)

    def __new__(cls, id: int, flow: FlowId, size: int, inject_time: int = 0):
        if not (is_int(size) and size >= 1):
            raise ValueError(f"packet size must be an integer >= 1, got {size!r}")
        if not (is_int(inject_time) and inject_time >= 0):
            raise ValueError(f"packet inject_time must be an integer >= 0, "
                             f"got {inject_time!r}")
        return tuple.__new__(cls, (id, flow, size, inject_time))


class _ServiceRecordFields(NamedTuple):
    flow: FlowId
    round: int
    start: int
    end: int
    sent_units: int
    blocking: int = 0


class ServiceRecord(_ServiceRecordFields):
    """One contiguous service visit of a flow on an output link.

    `sent_units` counts units actually moved; `blocking` counts cycles inside
    [start, end) where the head unit could not advance.  At one unit per
    non-blocked cycle, end - start - blocking == sent_units.
    """

    __slots__ = ()
    __setattr__ = _frozen
    _make = classmethod(_checked_make)

    def __new__(cls, flow: FlowId, round: int, start: int, end: int, sent_units: int,
                blocking: int = 0):
        if end <= start:
            raise ValueError(f"record must span time: start={start} end={end}")
        if blocking < 0 or blocking > end - start:
            raise ValueError(f"blocking {blocking} outside [0, {end - start}]")
        if sent_units < 0:
            raise ValueError("sent_units must be >= 0")
        return tuple.__new__(cls, (flow, round, start, end, sent_units, blocking))

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def sending(self) -> int:
        return self.end - self.start - self.blocking


@dataclass(slots=True)
class PacketEvent:
    """Inject/deliver lifecycle of one packet as seen by a trace."""

    packet_id: int
    flow: FlowId
    inject: int
    deliver: int | None = None


class Trace:
    """Ordered service records plus packet events for one output link.  Given
    `out`, a text file, it writes the CSV header there, then each appended
    record's row, and keeps no record (`records` is None) and no event; with
    `keep` false and no `out`, it keeps none and writes none.  Either way it
    counts the records and checks their order."""

    CSV_HEADER = ["flow", "round", "start", "end", "sent_units", "blocking"]
    row = attrgetter(*CSV_HEADER)  # a record's CSV row

    def __init__(self, out: TextIO | None = None, keep: bool = True) -> None:
        self.records: list[ServiceRecord] | None = [] if out is None and keep else None
        self.events: list[PacketEvent] = []
        self.sink = None if out is None else csv.writer(out).writerow
        if self.sink is not None:
            self.sink(self.CSV_HEADER)
        self.count = 0  # records appended, kept or written
        self.end: int | None = None  # the last one's end

    def __len__(self) -> int:
        return self.count

    def append(self, rec: ServiceRecord) -> None:
        if self.end is not None and rec.start < self.end:
            raise TraceError(
                f"record for flow {rec.flow} starts at {rec.start} before previous end {self.end}"
            )
        self.count += 1
        self.end = rec.end
        if self.records is not None:
            self.records.append(rec)
        if self.sink is not None:
            self.sink(self.row(rec))

    def kept(self) -> list[ServiceRecord]:
        """The records, which a streamed trace, or one that keeps nothing,
        does not keep."""
        if self.records is None:
            raise TraceError("this trace streams its records to its file and keeps none"
                             if self.sink is not None else "this trace keeps no records")
        return self.records

    def flows(self) -> list[FlowId]:
        return sorted({r.flow for r in self.kept()})

    def boundaries(self) -> list[int]:
        """Sorted distinct record start/end times.  `append` refuses a start
        before the previous end, so the times never decrease and only a
        start equal to the previous end repeats one."""
        out: list[int] = []
        last = None
        for _, _, start, end, _, _ in self.kept():
            if start != last:
                out.append(start)
            out.append(end)
            last = end
        return out

    # -- serialization ----------------------------------------------------

    def to_csv(self, fh: TextIO) -> None:
        records = self.kept()  # before the header, so a streamed trace writes nothing
        w = csv.writer(fh)
        w.writerow(self.CSV_HEADER)
        w.writerows(map(self.row, records))


def throughput_by_flow(trace: Trace) -> dict[FlowId, int]:
    """Total units sent per flow over the whole trace."""
    out: dict[FlowId, int] = {}
    for flow, _, _, _, sent, _ in trace.kept():
        out[flow] = out.get(flow, 0) + sent
    return out


def latency_stats(events: Iterable[PacketEvent]) -> dict[FlowId, dict[str, float]]:
    """Mean/max (deliver - inject) per flow over delivered packets."""
    sums: dict[FlowId, list[int]] = {}
    for ev in events:
        if ev.deliver is None:
            continue
        sums.setdefault(ev.flow, []).append(ev.deliver - ev.inject)
    return {
        f: {"mean": sum(v) / len(v), "max": float(max(v)), "count": float(len(v))}
        for f, v in sums.items()
    }
