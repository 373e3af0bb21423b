"""Network cost model on top of the torus topology.

The evaluation needs two things from the network: the latency a request pays
to cross the chip (added to the miss penalty) and the energy spent moving
messages (part of the Fig. 6.3 total-system energy).  Contention is not
modelled -- the paper's network is lightly loaded and its results do not
hinge on queuing delay -- so a message's latency is simply
``hops * (router_delay + link_delay)`` and its energy is
``hops * (router_energy + link_energy)`` scaled by the message size in flits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.noc.topology import TorusTopology
from repro.utils.statistics import Counter

#: Size in bytes of a message that carries no data (request, ack, invalidate).
CONTROL_MESSAGE_BYTES = 8

#: Flit width in bytes used to convert message size into hop energy units.
FLIT_BYTES = 8


@lru_cache(maxsize=None)
def hop_table(topology: TorusTopology) -> Tuple[Tuple[int, ...], ...]:
    """All-pairs hop distances, ``table[src][dst]``, built once per topology."""
    vertices = range(topology.num_vertices)
    return tuple(
        tuple(topology.hop_distance(src, dst) for dst in vertices)
        for src in vertices
    )


@dataclass(frozen=True)
class NetworkMessage:
    """A single traversal of the network.

    Attributes:
        src: source vertex (core or L3 bank id).
        dst: destination vertex.
        payload_bytes: data carried in addition to the control header
            (a full cache line for data messages, 0 for control messages).
    """

    src: int
    dst: int
    payload_bytes: int = 0

    @property
    def flits(self) -> int:
        """Number of flits occupied by this message."""
        total_bytes = CONTROL_MESSAGE_BYTES + self.payload_bytes
        return max(1, -(-total_bytes // FLIT_BYTES))


class TorusNetwork:
    """Latency / energy / message-count model of the on-chip torus."""

    def __init__(
        self,
        topology: TorusTopology,
        router_hop_cycles: int = 1,
        link_hop_cycles: int = 1,
        counters: Optional[Counter] = None,
    ) -> None:
        self.topology = topology
        self.router_hop_cycles = router_hop_cycles
        self.link_hop_cycles = link_hop_cycles
        self.counters = counters if counters is not None else Counter()
        self._counts = self.counters.raw
        # The topology is static, so hop distances (and hence latencies) are
        # precomputed once; a message send is then two table reads and three
        # counter increments, with no per-message object.
        self._hops = hop_table(topology)
        self._cycles_per_hop = router_hop_cycles + link_hop_cycles
        self._control_flits = max(
            1, -(-CONTROL_MESSAGE_BYTES // FLIT_BYTES)
        )

    def latency(self, src: int, dst: int) -> int:
        """Cycles for a message from ``src`` to ``dst`` (0 if same vertex)."""
        return self._hops[src][dst] * self._cycles_per_hop

    def send(self, message: NetworkMessage) -> int:
        """Account for one message and return its latency in cycles.

        Updates the ``network_messages``, ``network_router_hops`` and
        ``network_link_hops`` counters; hop counters are weighted by the
        message's flit count so larger (data-carrying) messages cost
        proportionally more energy.
        """
        return self._record(message.src, message.dst, message.flits)

    def send_control(self, src: int, dst: int) -> int:
        """Send a data-less (request/ack/invalidate) message."""
        return self._record(src, dst, self._control_flits)

    def send_data(self, src: int, dst: int, line_bytes: int) -> int:
        """Send a message carrying one cache line of data."""
        total_bytes = CONTROL_MESSAGE_BYTES + line_bytes
        return self._record(src, dst, max(1, -(-total_bytes // FLIT_BYTES)))

    def _record(self, src: int, dst: int, flits: int) -> int:
        """Count one message of ``flits`` flits and return its latency."""
        hops = self._hops[src][dst]
        weighted = hops * flits
        counts = self._counts
        counts["network_messages"] += 1
        # A same-vertex message crosses no router or link; adding the zero
        # would materialise phantom zero-valued hop counters into the live
        # defaultdict and break counter-snapshot byte-identity.
        if weighted:
            counts["network_router_hops"] += weighted
            counts["network_link_hops"] += weighted
        return hops * self._cycles_per_hop
