"""Link-state routing with a shared, possibly stale topology view.

The view is the channel's connectivity snapshot as of the last periodic
refresh (every ``update_period`` seconds).  Between refreshes every node
routes — and estimates remaining hop counts — using that stale view,
which is how the paper's "topological views at different nodes are
inconsistent" situation arises: the ground truth moves on while routing
still answers from the old graph.  JTP's per-hop loss-tolerance update
(Eq. 3) is specifically designed to keep the end-to-end reliability
target even then.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.routing.dijkstra import next_hop_table, shortest_path, shortest_path_tree
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.util.validation import require_positive


class LinkStateRouting:
    """Network-wide routing service over one shared topology view."""

    def __init__(self, channel: Channel, sim: Simulator, update_period: float = 10.0):
        self.channel = channel
        self.sim = sim
        self.update_period = require_positive(update_period, "update_period")
        self._view: Optional[Dict[int, Set[int]]] = None
        #: node -> (hop counts, first hops) over the current view; filled
        #: lazily by one shortest-path tree per node, cleared when the view changes.
        self._trees: Dict[int, Tuple[Dict[int, float], Dict[int, int]]] = {}
        self.view_updates = 0

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        """Take the initial view and schedule periodic view refreshes."""
        self.refresh_all_views()
        self.sim.schedule(self.update_period, self._periodic_update)

    def _periodic_update(self) -> None:
        self.refresh_all_views()
        self.sim.schedule(self.update_period, self._periodic_update)

    def refresh_all_views(self) -> None:
        """Adopt the channel's current connectivity as every node's view.

        The view is the channel's cached snapshot itself, held by
        reference: the channel never mutates a snapshot it has handed
        out (a position or fault change builds new sets), so the view
        stays frozen at refresh time while the ground truth moves on.
        When the snapshot equals the held view — the steady state of
        every static topology — the per-node shortest-path trees are
        kept; otherwise they are dropped and rebuilt lazily, once per
        node that routes in this generation.
        """
        snapshot = self.channel.connectivity()
        if snapshot != self._view:
            self._view = snapshot
            self._trees.clear()
        self.view_updates += 1

    # -- queries used by forwarding and by iJTP ------------------------------------------

    def view_of(self, node_id: int) -> Dict[int, Set[int]]:
        """The topology as ``node_id`` currently believes it to be (treat as immutable)."""
        if self._view is None:
            self.refresh_all_views()
        assert self._view is not None
        return self._view

    def _tree(self, node_id: int) -> Tuple[Dict[int, float], Dict[int, int]]:
        """Hop counts and first hops from ``node_id``: one traversal per view generation."""
        tree = self._trees.get(node_id)
        if tree is None:
            dist, prev = shortest_path_tree(self.view_of(node_id), node_id)
            tree = self._trees[node_id] = (dist, next_hop_table(prev, node_id))
        return tree

    def next_hop(self, node_id: int, destination: int) -> Optional[int]:
        """Next hop from ``node_id`` towards ``destination`` (or None)."""
        if node_id == destination:
            return destination
        return self._tree(node_id)[1].get(destination)

    def hops_to(self, node_id: int, destination: int) -> Optional[int]:
        """Remaining hop count from ``node_id`` to ``destination`` per its view."""
        if node_id == destination:
            return 0
        hops = self._tree(node_id)[0].get(destination)
        return None if hops is None else int(hops)

    def route(self, source: int, destination: int) -> Optional[List[int]]:
        """Full path from ``source`` to ``destination`` per the source's view."""
        return shortest_path(self.view_of(source), source, destination)

    def is_reachable(self, source: int, destination: int) -> bool:
        """Whether ``source`` currently believes it can reach ``destination``."""
        return self.next_hop(source, destination) is not None

    def true_hops(self, source: int, destination: int) -> Optional[int]:
        """Hop count on the *actual* current topology (ground truth, for tests)."""
        path = shortest_path(self.channel.connectivity(), source, destination)
        return None if path is None else len(path) - 1
