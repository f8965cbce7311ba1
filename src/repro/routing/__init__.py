"""Link-state routing substrate.

JAVeLEN uses an energy-conserving link-state routing protocol that
gives every node "a local, possibly inaccurate, view of the network's
topology".  JTP relies on routing for exactly two things:

* the next hop towards a destination (packet forwarding), and
* the number of remaining hops to the destination, which iJTP uses to
  split the end-to-end loss tolerance across the remaining links
  (Section 3) — and which may be stale or wrong, a situation JTP is
  explicitly designed to tolerate.

This package provides a Dijkstra shortest-path core
(:mod:`repro.routing.dijkstra`) and a link-state protocol
(:mod:`repro.routing.link_state`) that snapshots the channel's
connectivity once per ``update_period`` and answers both questions from
one shortest-path tree per node and snapshot generation.
"""

from repro.routing.dijkstra import shortest_path, shortest_path_tree, next_hop_table
from repro.routing.link_state import LinkStateRouting

__all__ = [
    "shortest_path",
    "shortest_path_tree",
    "next_hop_table",
    "LinkStateRouting",
]
