"""Algorithm 1 — maximum-entanglement-rate channel between two users.

Eq. (1) is a product, not a sum, so Dijkstra does not apply directly.
Following Sec. IV-A, each fiber edge gets weight ``α·L − ln q`` so that a
shortest path in weight space is a maximum-rate channel, with the final
rate recovered as ``exp(−ln q − Dist)``.

Implementation notes (equivalent reformulation):

* We charge the ``−ln q`` term when *leaving* an intermediate switch
  rather than uniformly per edge, which is the same total for any
  user-switch-…-user path but also handles the degenerate ``q = 0`` case
  (direct user-user fibers still work; multi-hop rates collapse to 0).
* Only switches with at least 2 residual qubits may relay (Algorithm 1,
  line 11: ``Q_{u_h} ≥ 2``), and quantum users other than the endpoints
  can never relay (a channel is "a path through vertices in R", Def. 2).
  The search's ``residual`` is a
  :class:`~repro.core.ledger.CapacityLedger` or ``None`` (the idle
  network's full budgets), and it is read only through that predicate:
  the ledger hands over the blocked-switch mask it keeps current as
  its owner reserves and releases.  Every solver that spends qubits
  passes its own ledger (the ledger module lists them).
* ``best_channels_from`` runs the search once per *source* and recovers
  all destinations through the ``Prev`` array — the complexity
  optimization described after Theorem 3, giving
  ``O(|U|(|E| + |V| log |V|))`` for the all-pairs step.  A channel is
  built from the search's own arrays (the predecessor chain and each
  node's incoming fiber length) only when it can win: a greedy step
  takes one channel in :func:`~repro.core.problem.channel_sort_key`
  order, and its candidates are first ranked by search weight (see
  *Rank margin* below).
* :class:`ChannelSearches` keeps each source's search across the
  rounds of one greedy solve (Prim, Algorithm 3's reconnect, N-FUSION)
  for as long as a fresh search would return the same channels.

Rank margin.  ``channel_sort_key`` orders channels by Eq. (1)'s log rate
first, and a search weight ``Ŵ`` is that rate negated up to rounding.
So :class:`ChannelSearches` (one greedy step) and
:func:`ranked_pair_channels` (Algorithm 2's Kruskal scan) build a
channel only when its target's weight is at most ``Ŵ_min + m(Ŵ_min)``,
with ``m(w) = 1e-9·(1 + w)`` (:func:`_within`), where ``Ŵ_min`` is the
least weight among the step's candidates.  Why no candidate above that
limit can win: let ``u = 2⁻⁵³`` and, for a channel ``P`` of ``l``
links, ``W(P) = α·ΣL + (l−1)·(−ln q)`` in exact arithmetic, with
``ln q`` the float both sides use.  The search sums ``W`` hop by hop in
floats from terms ``≥ 0``, so ``Ŵ(P)`` is within ``(2l+1)·u·W(P)`` of
``W(P)``; ``log_rate(P)`` takes four roundings of one-signed terms
(``fsum``, ``α·``, ``(l−1)·ln q``, their sum), so it is within
``4u·W(P)`` of ``−W(P)``.  Hence ``|Ŵ(P) + log_rate(P)| ≤ k·Ŵ(P)``
with ``k = (2|V| + 6)·u < 2.3e-10`` for any network under a million
nodes.  If ``Ŵ(B)`` exceeds the limit, which ``_within`` computes with
three roundings, then ``−log_rate(B) ≥ (1 − k)·Ŵ(B) > (1 + k)·Ŵ(A) ≥
−log_rate(A)``, because ``1e-9`` exceeds ``2k`` and those roundings:
``B``'s rate is strictly below the least-weight candidate ``A``'s, so
its hop count and ``repr`` tie-breaks never come into play.  The
``1 +`` term keeps the margin positive at weight 0 and above the
absolute error of subnormal sums; an infinite ``Ŵ_min`` admits every
candidate.  ``_within`` is monotone, so a candidate more than one
margin above any weight is more than one margin above every smaller
one, which is what lets the Kruskal scan cut its pairs into groups at
such gaps.

The search itself (:func:`relay_search`) runs on plain lists over the
network's :meth:`~repro.network.graph.QuantumNetwork.routing_snapshot`
(int node indices, per-node ``(neighbor, fiber_key, length)`` rows).
:func:`dijkstra` and the LP pricing search in :mod:`repro.bounds.lp`
share it; they differ only in the per-node transit costs and
blocked-switch mask they pass (LP pricing builds its mask once per
relaxation).  It returns ``dist`` / ``prev`` as read-only mappings over
its own index arrays, so no search builds a per-node dict.

Two heaps run it.  The lazy search pool (:class:`_SearchPool`, see
*Lazy settling* below) pushes ``(weight, node)`` entries on C
:mod:`heapq` and skips stale entries lazily; :func:`_exact_search`
inlines the sift rules of :class:`~repro.utils.heap.IndexedMinHeap`
with decrease-key.  :func:`relay_search` is a pool of one search run to
its end.  The ``heapq`` search hands over at its first tie that can
move a pop — two nodes settling at one weight, or a queued node at the
last target's weight when the search stops early — and the search runs
again on the pinned kernel.  A relaxation meeting a candidate equal to
the neighbor's weight updates neither heap, so it only sets
``prev.tied`` and the ``heapq`` search goes on.  No option picks the
kernel: the input does.

Tie-order contract.  Equal-weight channels are resolved by scan and
pop order, and every solver, cache entry and determinism digest
inherits that resolution, so the search must reproduce exactly the
plain dict / :class:`~repro.utils.heap.IndexedMinHeap` search that
``tests/core/test_channel_reference.py`` keeps as its reference.  The
pinned kernel does so by construction:

* fibers are scanned in adjacency insertion order (the snapshot's row
  order; :meth:`~repro.network.graph.QuantumNetwork.align_fiber_order`
  marks the realigned rows stale, so the next search rebuilds them);
* the heap sifts exactly as ``IndexedMinHeap`` does — ``>=`` stops a
  sift-up, strict ``<`` picks the child on a sift-down — so ties pop in
  the same order;
* candidate weights are computed as ``(dist + transit) + α·L`` in that
  float order, since re-associating changes the last bit and with it
  which path wins a tie;
* the returned ``dist`` / ``prev`` views iterate in the reference
  dicts' insertion order (the source first in ``dist``, then
  first-relaxation order), so callers and cache entries, which copy
  them into dicts, see the same order;
* a search given targets stops once the last of them is popped.  A
  popped node's ``dist`` and ``prev`` never change again, and the pops
  before the stop are the full search's pops, so every target's
  channel and its tie resolution are the full search's.
  :func:`best_channels_from` and :func:`find_best_channel` read only
  their targets and always pass them.  While a
  :class:`~repro.exec.cache.ChannelCache` is active the search stays
  full, because one entry serves later callers with other targets.

The ``heapq`` search returns the pinned kernel's result whenever it
returns one.  Every transit cost and fiber weight is nonnegative, and
float addition is monotone, so no pop is lighter than the one before.
Until two live nodes share the least weight, the least weight names
one node, and every correct heap pops the same nodes in the same
order.  When two do share it, one of them settles and the other is
still queued at that weight, so the next settled pop has the same
weight, or the search stops with it as the lightest live entry; either
way the ``heapq`` search sees the tie before it returns.  A relaxation
that meets an equal candidate leaves both kernels' weights, links and
heaps as they were, so it moves no pop; both kernels set ``prev.tied``
for it.  So on the ``heapq`` path the pops, and with them ``dist`` /
``prev``, the view order, the incoming fiber lengths, ``prev.tied`` and
every ``core.dijkstra.*`` count, are the pinned kernel's.  Any tie that
can move a pop hands the whole search to the pinned kernel, so tie
order is the pinned kernel's by construction.  The scan order and float
order above hold on both paths.

Lazy settling.  A greedy step takes one channel, and Algorithm 2's
Kruskal scan and Algorithm 4's Prim growth stop at the spanning tree's
heaviest channel, so a search settled beyond the weight a step can use
is wasted.  :class:`_SearchPool` keeps the searches of one greedy solve
(:func:`ranked_pair_channels`, :class:`ChannelSearches`) and settles
each only as far as the steps ask:

* *Pause and resume.*  :meth:`_SearchPool.settle` runs every search
  that may still settle, least next weight first, until its next entry
  lies above the step's weight limit, and pauses it there; a later step
  with a higher limit resumes it.  The limit moves as targets settle
  (an ``arrive`` callback).  A search's pops are a prefix of the pops
  its full search would make, in the same order, so each settled
  node's ``dist`` / ``prev`` is final.  A search is complete once its
  last target settles (the ``heapq`` search's stop above, tail check
  included) or its heap runs dry.
* *Block rules.*  After a reservation a paused search stays exact: a
  tied search runs again on any new block; a newly blocked switch it
  has only queued, or not reached, is closed in place, since it was
  never expanded and no other node's weight came through it; a newly
  blocked switch it has settled is harmless unless a queued node or a
  wanted target hangs on it, and then the search first settles to its
  targets under the mask it ran under and is judged as a complete
  search, by whether a wanted channel crosses the switch
  (:class:`ChannelSearches`).
* *Tie hand-over.*  At a settle tie only that search runs again on
  :func:`_exact_search`, under its mask and to its targets, and is
  complete; the pool's other searches go on.
* *Cache rule.*  While a :class:`~repro.exec.cache.ChannelCache` is
  active a pool search starts complete through :func:`dijkstra`, as a
  full cached search, so cache keys and hit counts do not move.

Every pool search starts through the module-global :func:`dijkstra`
(``pool=``), which counts it in ``core.dijkstra.calls`` and settles
nothing; the pool publishes the pops it settles, resumed ones
included, with :meth:`_SearchPool.publish`, outside any span that
wraps :func:`dijkstra`.
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from operator import itemgetter
from typing import (
    Callable,
    Collection,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.ledger import QUBITS_PER_CHANNEL, CapacityLedger
from repro.core.problem import Channel, channel_sort_key
from repro.core.rates import channel_log_rate_from_lengths, swap_log_rate
from repro.exec import cache as exec_cache
from repro.network.errors import UnknownNodeError
from repro.network.graph import NetworkParams, QuantumNetwork, RoutingSnapshot
import repro.obs.metrics as obs_metrics

__all__ = [
    "dijkstra",
    "trace_path",
    "find_best_channel",
    "best_channels_from",
    "all_pairs_best_channels",
    "ranked_pair_channels",
    "relay_joined",
    "ChannelSearches",
]


class _SearchView(Mapping):
    """Read-only node-id mapping over one search's index arrays.

    Iterates *order* (node indices, the source first); a node is
    present once it has been relaxed (``prev[i] >= 0``), and so is
    *root*: the source in ``dist`` and ``-1`` in ``prev``, which then
    skips ``order``'s first entry.  *order* may still grow while a
    paused pool search resumes.  Compares equal to the dict a reference
    search would have built.
    """

    __slots__ = ("_ids", "_index", "_prev", "_order", "_root")

    def __init__(self, ids, index, prev, order, root) -> None:
        self._ids = ids
        self._index = index
        self._prev = prev
        self._order = order
        self._root = root

    def _at(self, key: Hashable) -> int:
        i = self._index.get(key, -1)
        if i < 0 or (self._prev[i] < 0 and i != self._root):
            return -1
        return i

    def __contains__(self, key: object) -> bool:
        return self._at(key) >= 0

    def __len__(self) -> int:
        return len(self._order) - (self._root < 0)

    def __iter__(self) -> Iterator[Hashable]:
        order = self._order
        if self._root < 0:
            order = islice(order, 1, None)
        return map(self._ids.__getitem__, order)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class _DistView(_SearchView):
    """``dist``: node id → accumulated search weight."""

    __slots__ = ("_dist",)

    def __init__(self, ids, index, prev, order, root, dist) -> None:
        self._ids = ids
        self._index = index
        self._prev = prev
        self._order = order
        self._root = root
        self._dist = dist

    def __getitem__(self, key: Hashable) -> float:
        i = self._at(key)
        if i < 0:
            raise KeyError(key)
        return self._dist[i]

    def reached(self, targets: Iterable[Hashable]) -> Dict[Hashable, float]:
        """Search weight of each of *targets* the search reached, in
        *targets* order; the source is never among them."""
        index = self._index
        chain = self._prev
        dist = self._dist
        reached = {}
        for target in targets:
            i = index[target]
            if chain[i] >= 0:
                reached[target] = dist[i]
        return reached


class _PrevView(_SearchView):
    """``prev``: node id → predecessor id on its best partial channel.

    Also keeps each node's incoming fiber length on that channel, from
    which :meth:`channel` builds channels, and the search's
    :attr:`tied` flag.
    """

    __slots__ = ("_lengths", "tied")

    def __init__(self, ids, index, prev, order, root, lengths, tied) -> None:
        self._ids = ids
        self._index = index
        self._prev = prev
        self._order = order
        self._root = root
        self._lengths = lengths
        #: Whether the search met an exact tie (see :func:`relay_search`).
        self.tied = tied

    def __getitem__(self, key: Hashable) -> Hashable:
        i = self._at(key)
        if i < 0:
            raise KeyError(key)
        return self._ids[self._prev[i]]

    def channel(
        self, source: Hashable, target: Hashable, params: NetworkParams
    ) -> Optional[Channel]:
        """The channel from the search's *source* to *target*, or
        ``None`` when the search did not reach *target*.

        Its Eq. (1) rate is summed from the chain's fiber lengths, the
        value :meth:`Channel.from_path <repro.core.problem.Channel.from_path>`
        computes (the sum is exact, so the order is immaterial).
        """
        index = self._index
        chain = self._prev
        node = index[target]
        if chain[node] < 0:
            return None
        ids = self._ids
        lengths = self._lengths
        start = index[source]
        path = [target]
        segments = []
        while node != start:
            segments.append(lengths[node])
            node = chain[node]
            path.append(ids[node])
        path.reverse()
        return Channel(
            tuple(path),
            channel_log_rate_from_lengths(
                segments, params.alpha, params.swap_prob
            ),
        )

    def relays_any(
        self, source: Hashable, target: Hashable, nodes: Set[Hashable]
    ) -> bool:
        """Whether the channel from *source* to the reached *target*
        relays through one of *nodes*; walks the chain, builds nothing."""
        ids = self._ids
        chain = self._prev
        start = self._index[source]
        node = chain[self._index[target]]
        while node != start:
            if ids[node] in nodes:
                return True
            node = chain[node]
        return False


def relay_search(
    graph: RoutingSnapshot,
    source: int,
    alpha: float,
    transit: Sequence[float],
    blocked: bytearray,
    forbidden: Optional[Set[Tuple[Hashable, Hashable]]] = None,
    targets: Optional[Set[int]] = None,
) -> Tuple[
    Mapping[Hashable, float], Mapping[Hashable, Hashable], int, int, int
]:
    """Min-weight search from node index *source* over *graph*.

    Leaving node ``i`` other than the source costs ``transit[i]``
    (``+inf`` forbids it); every fiber costs ``α·L``.  Switches flagged
    in *blocked* (see :meth:`CapacityLedger.blocked
    <repro.core.ledger.CapacityLedger.blocked>`) may be neither entered nor
    expanded; other switches relay.  Users are always enterable, as
    terminals: a user expands only as the source.  Fibers whose key is in
    *forbidden* are skipped.  *blocked* is read, not written.

    With *targets* (node indices) the search returns as soon as the
    last of them has been settled; the targets' entries and their
    ``prev`` chains are then exactly the full search's, while other
    nodes may be missing or hold unsettled weights.

    Returns ``(dist, prev, heap_pops, edges_scanned, relaxations)``,
    where ``dist`` / ``prev`` are read-only mappings keyed by node id,
    in the tie order the module docstring pins down.  ``heap_pops``
    counts settled pops only, so it is also the settled-node count.
    ``prev.tied`` reports an exact tie: some relaxation met a candidate
    equal to the neighbor's weight, or two nodes settled at one weight.
    Without one, the node that set a settled node's weight is the only
    node reaching it, which lets :class:`ChannelSearches` keep a search
    across reservations.

    The search is a :class:`_SearchPool` of one search, which hands
    over to the pinned sift kernel at its first tie that can move a pop
    (see the module docstring), so the input alone picks the kernel.
    """
    return _search_alone(
        graph, source, alpha, transit, blocked, forbidden, targets
    )[:5]


def relay_joined(
    network: QuantumNetwork, users: Sequence[Hashable], ledger: CapacityLedger
) -> bool:
    """Whether *users* lie in one component of *ledger*'s relay graph.

    The relay graph is *network*'s fiber graph with every switch
    *ledger* blocks (:meth:`~repro.core.ledger.CapacityLedger.blocked`)
    and every user outside *users* taken out.  The sweep walks it from
    the first user and returns once every user has been seen.  A
    requested user is walked through, because a tree chains channels at
    its own users; a switch is entered only while the mask leaves it
    open, and another user only if it is requested.  O(|V| + |E|), with
    no state kept between calls.

    ``False`` is an exact refusal for a greedy solve that spends
    *ledger* (:func:`~repro.core.prim_based.solve_prim`,
    :func:`~repro.core.conflict_free.solve_conflict_free`): within the
    solve the ledger only loses qubits, so every relay of every channel
    the solve can pick was open at entry; a channel's interior nodes
    are switches and its endpoints are requested users; so a feasible
    tree joins *users* inside the relay graph at entry.  Forbidden
    fibers and ``q = 0`` are ignored, which only enlarges the swept
    graph, so ``True`` promises nothing.  A ``False`` publishes
    ``core.channel_search.split_groups``.
    """
    graph = network.routing_snapshot()
    index = graph.index
    requested = {index[user] for user in users}
    if len(requested) < 2:
        return True
    is_switch = graph.is_switch
    rows = graph.rows
    start = index[users[0]]
    # Blocked switches start closed, so one byte answers every visit.
    closed = bytearray(ledger.blocked(graph))
    closed[start] = 1
    stack = [start]
    left = len(requested) - 1
    while stack:
        for neighbor, _, _ in rows[stack.pop()]:
            if closed[neighbor]:
                continue
            closed[neighbor] = 1
            if not is_switch[neighbor]:
                if neighbor not in requested:
                    continue
                left -= 1
                if not left:
                    return True
            stack.append(neighbor)
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("core.channel_search.split_groups")
    return False


class _Search:
    """One search of a :class:`_SearchPool`.

    ``dist`` / ``prev`` are its views; they grow while the search
    settles and are replaced once, if it hands over to the pinned
    kernel.  ``state`` holds its heap and arrays while it may still
    settle and is ``None`` once it is complete: every target settled
    or proved unreachable, a hand-over run, or retired by its consumer.
    """

    __slots__ = (
        "key", "source", "goal", "mask", "dist", "prev", "state", "last",
        "weights", "targets", "seen", "ranked",
    )

    def __init__(self, key, source, goal, mask, dist, prev, state) -> None:
        self.key = key
        self.source = source
        #: Target indices the search answers for; empty for a full one.
        self.goal = goal
        #: The relay mask it runs under (a hand-over reads it again).
        self.mask = mask
        self.dist = dist
        self.prev = prev
        #: ``(heap, dist, prev, lengths, closed, order, source, wanted,
        #: prev view)`` while it may settle; ``heap`` holds ``(weight,
        #: node)`` entries and ``wanted`` is the unsettled part of
        #: ``goal``.
        self.state = state
        self.last = -1.0  # the last settled weight; every weight is >= 0
        #: target id → search weight, settled targets of ``goal`` only.
        self.weights: Dict[Hashable, float] = {}
        # ChannelSearches sets ``targets`` (the target ids the search
        # is exact for), ``seen`` (how many of the solve's newly
        # blocked switches it was checked against) and ``ranked`` (the
        # channels built for it).


#: ``arrive(weight, search, node)`` for each target a search settles;
#: returns the new weight limit of the :meth:`_SearchPool.settle` call.
Arrival = Callable[[float, "_Search", int], float]


class _SearchPool:
    """The searches of one greedy solve, each settled only as far as
    the solve's steps ask.

    Each search keeps its own lazy-deletion :mod:`heapq` of ``(weight,
    node)`` entries, and the pool a heap of the searches by next
    weight.  :meth:`settle` runs the searches, least next weight first,
    until every next entry lies above the step's weight limit: a search
    pauses there and resumes when a later step raises the limit.  Its pops are a prefix of the pops its
    full search would make, in the same order, so every settled node's
    ``dist`` / ``prev`` is final.

    A search starts through :func:`dijkstra` (``pool=``), which counts
    it in ``core.dijkstra.calls``; the pool counts the pops it settles
    and publishes them with :meth:`publish`.  At a settle tie (two pops
    of one search at one weight, or a queued entry at its last target's
    weight) that search alone runs again on :func:`_exact_search` under
    its mask, to its targets, and is complete.
    """

    __slots__ = (
        "graph", "alpha", "transit", "forbidden", "rows", "searches",
        "_tops", "heap_pops", "edges_scanned", "relaxations", "exact", "reruns",
        "found",
    )

    def __init__(
        self,
        graph: RoutingSnapshot,
        alpha: float,
        transit: Sequence[float],
        forbidden: Optional[Set[Tuple[Hashable, Hashable]]] = None,
    ) -> None:
        self.graph = graph
        self.alpha = alpha
        self.transit = transit
        self.forbidden = forbidden
        #: The snapshot's rows without the forbidden fibers.
        self.rows = graph.rows
        if forbidden:
            self.rows = rows = list(graph.rows)
            index = graph.index
            for fiber in forbidden:
                for end in fiber:
                    i = index.get(end)
                    if i is not None:
                        rows[i] = [e for e in rows[i] if e[1] not in forbidden]
        self.searches: List[_Search] = []
        #: ``(next weight, key)`` of each search that may still settle,
        #: or below it: a search settled outside :meth:`settle` keeps a
        #: lower entry until the entry surfaces.
        self._tops: List[Tuple[float, int]] = []
        # Unpublished counts: lazy pops, then the hand-overs' own.
        self.heap_pops = self.edges_scanned = self.relaxations = 0
        self.exact = [0, 0, 0]
        self.reruns = 0
        self.found = 0

    @classmethod
    def for_network(cls, network: QuantumNetwork) -> "_SearchPool":
        """A pool of Algorithm-1 searches over *network*."""
        graph = network.routing_snapshot()
        minus_ln_q = -swap_log_rate(network.params.swap_prob)  # in [0, +inf]
        return cls(graph, network.params.alpha, [minus_ln_q] * len(graph.ids))

    def open(
        self,
        network: QuantumNetwork,
        source: Hashable,
        residual: Optional[CapacityLedger],
        targets: Sequence[Hashable],
    ) -> _Search:
        """Start a search from *source* for *targets* through
        :func:`dijkstra`; it settles nothing until :meth:`settle`."""
        dijkstra(network, source, residual, targets=targets, pool=self)
        search = self.searches[-1]
        if not search.goal:
            search.state = None  # nothing to settle for
        return search

    def start(
        self, source: int, blocked: bytearray, goal: Set[int]
    ) -> _Search:
        """Queue a search from *source* under mask *blocked*; an empty
        *goal* makes it a full search."""
        graph = self.graph
        ids = graph.ids
        index = graph.index
        n = len(ids)
        dist = [math.inf] * n
        dist[source] = 0.0
        prev = [-1] * n
        lengths = [0.0] * n  # incoming fiber length on each prev link
        # Settled nodes and blocked switches: one byte test per fiber.
        closed = bytearray(blocked)
        closed[source] = 0  # a spur search may start at a blocked switch
        order = [source]  # the source, then first-relaxation order
        view = _PrevView(ids, index, prev, order, -1, lengths, False)
        state = (
            [(0.0, source)], dist, prev, lengths, closed, order, source,
            set(goal), view,
        )
        search = _Search(
            len(self.searches),
            source,
            goal,
            blocked,
            _DistView(ids, index, prev, order, source, dist),
            view,
            state,
        )
        heapq.heappush(self._tops, (0.0, search.key))
        self.searches.append(search)
        return search

    def adopt(
        self,
        source: int,
        dist: "_DistView",
        prev: "_PrevView",
        goal: Set[int],
    ) -> _Search:
        """Join a complete search (a cached or full :func:`dijkstra`);
        its reached targets are in its ``weights``."""
        search = _Search(
            len(self.searches), source, goal, None, dist, prev, None
        )
        self.searches.append(search)
        self._reached(search, sorted(goal))
        return search

    def narrow(self, search: _Search, targets: Iterable[Hashable]) -> None:
        """Narrow *search*'s goal to *targets* (ids, a subset); a paused
        search left with no unsettled target is complete."""
        index = self.graph.index
        search.goal = {index[target] for target in targets}
        state = search.state
        if state is not None:
            wanted = state[7]
            wanted.intersection_update(search.goal)
            if not wanted:
                search.state = None

    def block(self, search: _Search, switches: Iterable[Hashable]) -> bool:
        """Apply newly blocked *switches* to the paused, untied *search*.

        ``False``, leaving the search as it was, when one of them is
        settled and its subtree of settled nodes reaches a node not yet
        settled or a goal target.  Otherwise the unsettled ones are
        closed in place (see :class:`ChannelSearches`).
        """
        graph = self.graph
        index = graph.index
        rows = graph.rows
        is_switch = graph.is_switch
        prev = search.state[2]
        closed = search.state[4]
        goal = search.goal
        opened = []
        for switch in switches:
            i = index[switch]
            if not closed[i]:
                opened.append(i)
                continue
            stack = [i]
            while stack:
                node = stack.pop()
                for neighbor, _, _ in rows[node]:
                    if prev[neighbor] != node:
                        continue
                    if not closed[neighbor] or neighbor in goal:
                        return False
                    if is_switch[neighbor]:
                        stack.append(neighbor)
        for i in opened:
            closed[i] = 1
        return True

    def finish(self, search: _Search) -> None:
        """Settle *search* until it is complete."""
        if search.state is not None:
            self._run(search, math.inf, None)
            self.publish()

    def _reached(
        self, search: _Search, nodes: Iterable[int]
    ) -> List[Tuple[float, int]]:
        """Record the reached targets among *nodes* of a complete
        *search*; returns their ``(weight, node)`` pairs."""
        ids = self.graph.ids
        dist = search.dist
        prev = search.prev
        weights = search.weights
        reached = []
        for node in nodes:
            target = ids[node]
            if target in prev:
                weight = weights[target] = dist[target]
                reached.append((weight, node))
        self.found += len(reached)
        return reached

    def _hand_over(self, search: _Search) -> List[Tuple[float, int]]:
        """Run *search* again on the pinned kernel, to its goal;
        returns the targets it reached that were not settled."""
        wanted = search.state[7]
        search.state = None
        dist, prev, pops, edges, relaxations = _exact_search(
            self.graph,
            search.source,
            self.alpha,
            self.transit,
            search.mask,
            self.forbidden,
            search.goal or None,
        )
        search.dist = dist
        search.prev = prev
        exact = self.exact
        exact[0] += pops
        exact[1] += edges
        exact[2] += relaxations
        self.reruns += 1
        return self._reached(search, sorted(wanted))

    def settle(self, limit: float, arrive: Optional[Arrival] = None) -> None:
        """Settle the searches that may still settle, least next weight
        first, until every next entry weighs more than *limit*.

        Each target a search settles goes into its ``weights``; then
        ``arrive(weight, search, node)``, when given, returns the new
        *limit*.  A search paused below a limit that rises later in the
        call runs again.  A hand-over reports every target it reached.
        """
        tops = self._tops
        searches = self.searches
        pop = heapq.heappop
        while tops and tops[0][0] <= limit:
            _, key = pop(tops)
            search = searches[key]
            if search.state is not None:
                limit = self._run(search, limit, arrive)
                if search.state is not None:
                    heapq.heappush(tops, (search.state[0][0][0], key))

    def _run(
        self, search: _Search, limit: float, arrive: Optional[Arrival]
    ) -> float:
        """:meth:`settle` for one search, the lazy :mod:`heapq` kernel;
        returns the limit *arrive* left."""
        heap, dist, prev, lengths, closed, order, source, wanted, view = (
            search.state
        )
        graph = self.graph
        rows = self.rows
        scanned = graph.rows  # edges_scanned counts forbidden fibers too
        is_switch = graph.is_switch
        ids = graph.ids
        transit = self.transit
        alpha = self.alpha
        pop = heapq.heappop
        push = heapq.heappush
        inf = math.inf
        heap_pops = edges_scanned = relaxations = 0
        last = search.last
        reached = None
        while heap:
            node_dist, node = pop(heap)
            if node_dist > limit:
                push(heap, (node_dist, node))
                break
            if closed[node]:
                continue  # stale, or a switch blocked in place
            if node_dist == last:
                reached = self._hand_over(search)  # a settle tie
                break
            last = node_dist
            closed[node] = 1
            heap_pops += 1
            if wanted and node in wanted:
                wanted.discard(node)
                search.weights[ids[node]] = node_dist
                self.found += 1
                if not wanted:
                    # The pinned kernel may pop a queued entry at this
                    # weight first.
                    reached = [(node_dist, node)]
                    while heap:
                        top, top_node = heap[0]
                        if closed[top_node]:
                            pop(heap)
                        elif top == node_dist:
                            reached += self._hand_over(search)
                            break
                        else:
                            break
                    search.state = None
                    break
                if arrive is not None:
                    limit = arrive(node_dist, search, node)
            if node == source:
                cost = 0.0
            elif not is_switch[node]:
                continue  # users are terminals
            else:
                cost = transit[node]
                if cost == inf:
                    continue  # q = 0: cannot extend beyond the source's links
            edges_scanned += len(scanned[node])
            base = node_dist + cost
            for neighbor, _, length in rows[node]:
                if closed[neighbor]:
                    continue
                candidate = base + alpha * length
                known = dist[neighbor]
                if candidate < known:
                    if prev[neighbor] < 0:
                        order.append(neighbor)
                    dist[neighbor] = candidate
                    prev[neighbor] = node
                    lengths[neighbor] = length
                    relaxations += 1
                    push(heap, (candidate, neighbor))
                elif candidate == known:
                    view.tied = True
        else:
            search.state = None  # every reachable node is settled
        search.last = last
        self.heap_pops += heap_pops
        self.edges_scanned += edges_scanned
        self.relaxations += relaxations
        if reached and arrive is not None:
            for weight, node in reached:
                limit = arrive(weight, search, node)
        return limit

    def publish(self) -> None:
        """Publish the pops, scans and hand-overs since the last call."""
        metrics = obs_metrics.active()
        if metrics is not None:
            exact = self.exact
            pops = self.heap_pops + exact[0]
            metrics.inc("core.dijkstra.heap_pops", pops)
            metrics.inc("core.dijkstra.edges_scanned", self.edges_scanned + exact[1])
            metrics.inc("core.dijkstra.relaxations", self.relaxations + exact[2])
            metrics.inc("core.dijkstra.nodes_settled", pops)
            if self.reruns:
                metrics.inc("core.dijkstra.exact_reruns", self.reruns)
            metrics.inc("core.channel_search.channels_found", self.found)
        self.heap_pops = self.edges_scanned = self.relaxations = 0
        self.found = 0
        if self.reruns:
            self.exact = [0, 0, 0]
            self.reruns = 0


def _search_alone(
    graph: RoutingSnapshot,
    source: int,
    alpha: float,
    transit: Sequence[float],
    blocked: bytearray,
    forbidden: Optional[Set[Tuple[Hashable, Hashable]]],
    targets: Optional[Set[int]],
) -> Tuple[
    Mapping[Hashable, float], Mapping[Hashable, Hashable], int, int, int, bool
]:
    """:func:`relay_search` as a pool of one search, run to its end,
    and whether it handed over.  The counts are the lazy search's, or
    after a hand-over the pinned kernel's alone."""
    pool = _SearchPool(graph, alpha, transit, forbidden)
    search = pool.start(source, blocked, targets or set())
    pool._run(search, math.inf, None)
    if pool.reruns:
        counts = pool.exact
    else:
        counts = (pool.heap_pops, pool.edges_scanned, pool.relaxations)
    return (search.dist, search.prev, *counts, bool(pool.reruns))


def _exact_search(
    graph: RoutingSnapshot,
    source: int,
    alpha: float,
    transit: Sequence[float],
    blocked: bytearray,
    forbidden: Optional[Set[Tuple[Hashable, Hashable]]],
    targets: Optional[Set[int]],
) -> Tuple[
    Mapping[Hashable, float], Mapping[Hashable, Hashable], int, int, int
]:
    """:func:`relay_search` on the pinned sift kernel.

    The heap sifts exactly as :class:`~repro.utils.heap.IndexedMinHeap`
    does, so equal weights pop in the reference order.  It runs only
    after :func:`_heapq_search` met a tie that can move a pop; every pop
    is a settled pop, and ``prev.tied`` reports the tie.
    """
    ids = graph.ids
    rows = graph.rows
    is_switch = graph.is_switch
    n = len(ids)
    inf = math.inf
    dist = [inf] * n
    dist[source] = 0.0
    prev = [-1] * n
    lengths = [0.0] * n  # incoming fiber length on each prev link
    # Settled nodes and blocked switches: one byte test per fiber.
    closed = bytearray(blocked)
    pos = [-1] * n  # heap slot per node, -1 when not queued
    order = [source]  # the source, then first-relaxation order
    keys = [0.0]
    items = [source]
    pos[source] = 0
    heap_pops = edges_scanned = relaxations = 0
    pending = len(targets) if targets else 0
    tied = False
    last_weight = -1.0  # the last popped weight; every weight is >= 0

    while items:
        node = items[0]
        node_dist = keys[0]
        if node_dist == last_weight:
            tied = True
        last_weight = node_dist
        last = items.pop()
        last_key = keys.pop()
        pos[node] = -1
        size = len(items)
        if size:
            # Sift *last* down from the root (IndexedMinHeap._sift_down).
            i = 0
            while True:
                child = 2 * i + 1
                if child >= size:
                    break
                child_key = keys[child]
                right = child + 1
                if right < size and keys[right] < (
                    child_key if child_key < last_key else last_key
                ):
                    child = right
                    child_key = keys[right]
                elif not child_key < last_key:
                    break
                keys[i] = child_key
                moved = items[child]
                items[i] = moved
                pos[moved] = i
                i = child
            keys[i] = last_key
            items[i] = last
            pos[last] = i
        heap_pops += 1
        closed[node] = 1
        if pending and node in targets:
            pending -= 1
            if not pending:
                break
        if node == source:
            cost = 0.0
        elif not is_switch[node]:
            continue  # users are terminals
        else:
            cost = transit[node]
            if cost == inf:
                continue  # q = 0: cannot extend beyond the source's links
        row = rows[node]
        edges_scanned += len(row)
        base = node_dist + cost
        for neighbor, key, length in row:
            if closed[neighbor]:
                continue
            if forbidden is not None and key in forbidden:
                continue
            candidate = base + alpha * length
            known = dist[neighbor]
            if candidate < known:
                if prev[neighbor] < 0:
                    order.append(neighbor)
                dist[neighbor] = candidate
                prev[neighbor] = node
                lengths[neighbor] = length
                relaxations += 1
                # Insert or decrease-key, then sift up
                # (IndexedMinHeap.push / _sift_up).
                i = pos[neighbor]
                if i < 0:
                    i = len(items)
                    items.append(neighbor)
                    keys.append(candidate)
                while i > 0:
                    parent = (i - 1) >> 1
                    parent_key = keys[parent]
                    if candidate >= parent_key:
                        break
                    keys[i] = parent_key
                    moved = items[parent]
                    items[i] = moved
                    pos[moved] = i
                    i = parent
                keys[i] = candidate
                items[i] = neighbor
                pos[neighbor] = i
            elif candidate == known:
                tied = True

    index = graph.index
    return (
        _DistView(ids, index, prev, order, source, dist),
        _PrevView(ids, index, prev, order, -1, lengths, tied),
        heap_pops,
        edges_scanned,
        relaxations,
    )


def dijkstra(
    network: QuantumNetwork,
    source: Hashable,
    residual: Optional[CapacityLedger] = None,
    forbidden_fibers: Optional[Set[Tuple[Hashable, Hashable]]] = None,
    allow_switch_source: bool = False,
    targets: Optional[Iterable[Hashable]] = None,
    pool: Optional[_SearchPool] = None,
) -> Tuple[Mapping[Hashable, float], Mapping[Hashable, Hashable]]:
    """Single-source max-rate search (Algorithm 1's main loop).

    This is the public channel-search primitive (the building block
    :func:`find_best_channel` / :func:`best_channels_from` and the
    Yen-style spur searches in :mod:`repro.core.kbest` share); pair it
    with :func:`trace_path` to materialize concrete paths.

    Returns ``(dist, prev)`` where ``dist[x]`` is the accumulated weight
    ``α·ΣL − (#swaps)·ln q`` of the best partial channel from *source* to
    ``x`` and ``prev`` traces the path.  Both are read-only mappings
    over the search's arrays (``dict(dist)`` copies one); a cache hit
    returns the stored pair of an earlier search.  Quantum
    users are reachable as terminals but never expanded; switches are
    expanded only while they hold at least 2 free qubits on *residual*
    (a :class:`~repro.core.ledger.CapacityLedger`; ``None`` means the
    idle network's full budgets).

    ``allow_switch_source`` lets spur-search callers start from a
    switch; the source's own swap cost is then the caller's
    responsibility (it is a constant offset across all returned paths,
    so argmax comparisons stay valid).

    ``targets`` lets a caller that reads only some nodes stop the
    search once the last of them is settled: their ``dist`` / ``prev``
    entries are the full search's, other entries are partial.  Without
    it, or while a cache is active, the search is full.

    ``pool`` is the greedy solves' lazy search pool
    (:class:`_SearchPool`, built by :class:`ChannelSearches` and
    :func:`ranked_pair_channels`): the search joins it, under the pool's
    transit costs and forbidden fibers, and settles nothing here; the
    returned views fill in as the pool settles it.  While a cache is
    active it joins complete instead, as the search below returns it.

    Profiling: each call publishes ``core.dijkstra.calls`` /
    ``.heap_pops`` / ``.edges_scanned`` / ``.relaxations`` /
    ``.nodes_settled`` counters to the active
    :class:`~repro.obs.metrics.MetricsRegistry` (one batch at return),
    and ``.exact_reruns`` when the search met a tie and ran again on the
    pinned kernel.  A pool search counts its call here and its pops
    when the pool publishes them.

    Caching: when a :class:`~repro.exec.cache.ChannelCache` is active
    (:func:`repro.exec.cache.caching`), results are memoized under an
    exact key — routing fingerprint, source, blocked-switch set,
    forbidden fibers — so a hit returns the byte-identical ``(dist,
    prev)`` a recomputation would have produced.  The search only reads
    residual capacities through the "≥ 2 free qubits" relay predicate,
    which is why the blocked-switch *set* (not the raw counts) fully
    captures the residual state's influence.  An entry must serve later
    callers that read other nodes, so a cached search never stops early.
    """
    if not allow_switch_source and not network.is_user(source):
        raise ValueError(f"source {source!r} must be a quantum user")
    if residual is None:
        residual = CapacityLedger.from_network(network)
    cache = exec_cache.active()
    cache_key = None
    if cache is not None:
        cache_key = cache.key_for(
            network, residual, source, forbidden_fibers, allow_switch_source
        )
        found = cache.get(cache_key)
        if found is None:
            found = cache.warm_lookup(cache_key, network)
        if found is not None:
            if pool is not None:
                _join_complete(pool, source, found, targets)
            return found
    graph = network.routing_snapshot()
    start = graph.index.get(source)
    if start is None:
        raise UnknownNodeError(source)
    stop_at = None
    if targets is not None and cache is None:
        stop_at = {graph.index[target] for target in targets}
    metrics = obs_metrics.active()
    if pool is not None and cache is None:
        pool.start(start, residual.blocked(graph), stop_at or set())
        if metrics is not None:
            metrics.inc("core.dijkstra.calls")
        return pool.searches[-1].dist, pool.searches[-1].prev
    minus_ln_q = -swap_log_rate(network.params.swap_prob)  # in [0, +inf]
    dist, prev, heap_pops, edges_scanned, relaxations, rerun = _search_alone(
        graph,
        start,
        network.params.alpha,
        [minus_ln_q] * len(graph.ids),
        residual.blocked(graph),
        forbidden_fibers or None,
        stop_at,
    )
    if metrics is not None:
        metrics.inc("core.dijkstra.calls")
        metrics.inc("core.dijkstra.heap_pops", heap_pops)
        metrics.inc("core.dijkstra.edges_scanned", edges_scanned)
        metrics.inc("core.dijkstra.relaxations", relaxations)
        metrics.inc("core.dijkstra.nodes_settled", heap_pops)
        if rerun:
            metrics.inc("core.dijkstra.exact_reruns")
    if cache is not None:
        cache.put(cache_key, (dist, prev))
        if pool is not None:
            _join_complete(pool, source, (dist, prev), targets)
    return dist, prev


def _join_complete(
    pool: _SearchPool,
    source: Hashable,
    found: Tuple[Mapping[Hashable, float], Mapping[Hashable, Hashable]],
    targets: Optional[Iterable[Hashable]],
) -> None:
    """Add a full search's ``(dist, prev)`` to *pool* as complete."""
    index = pool.graph.index
    dist, prev = found
    goal = {index[target] for target in targets or ()}
    pool.adopt(index[source], dist, prev, goal)


def trace_path(
    prev: Mapping[Hashable, Hashable], source: Hashable, target: Hashable
) -> Tuple[Hashable, ...]:
    """Recover the source→target path from :func:`dijkstra`'s ``prev``.

    Raises ``KeyError`` when *target* was unreachable (absent from the
    predecessor map); callers are expected to test membership in the
    returned ``dist`` first, as the channel helpers here do.
    """
    path: List[Hashable] = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


def find_best_channel(
    network: QuantumNetwork,
    source: Hashable,
    target: Hashable,
    residual: Optional[CapacityLedger] = None,
    forbidden_fibers: Optional[Set[Tuple[Hashable, Hashable]]] = None,
) -> Optional[Channel]:
    """Algorithm 1: best channel between users *source* and *target*.

    Args:
        network: The quantum network.
        source, target: Distinct quantum-user ids.
        residual: Optional ledger of free qubits per switch (defaults
            to each switch's full budget); switches below 2 qubits are
            skipped, as in line 11 of Algorithm 1.
        forbidden_fibers: Optional set of fiber keys the channel must not
            use (supports the edge-removal study and ablations).

    Returns:
        The maximum-rate :class:`Channel`, or ``None`` when no feasible
        channel exists ("No valid channel", line 19).
    """
    if source == target:
        raise ValueError("source and target must differ")
    _require_users(network, (target,))
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("core.channel_search.pair_calls")
    _, prev = dijkstra(
        network, source, residual, forbidden_fibers, targets=(target,)
    )
    return prev.channel(source, target, network.params)


def _within(weight: float) -> float:
    """The heaviest search weight that may still rank with *weight*:
    ``weight + 1e-9·(1 + weight)`` (the module docstring's rank
    margin)."""
    return weight + 1e-9 * (1.0 + weight)


def _require_users(network: QuantumNetwork, targets: Iterable[Hashable]) -> None:
    for target in targets:
        if not network.is_user(target):
            raise ValueError(f"target {target!r} must be a quantum user")


def _search_from(
    network: QuantumNetwork,
    source: Hashable,
    targets: Sequence[Hashable],
    residual: Optional[CapacityLedger],
) -> Tuple[_PrevView, Dict[Hashable, float]]:
    """One search from *source* for *targets*, users the caller has
    checked: its ``prev`` and the search weight of each target it
    reached, in *targets* order."""
    dist, prev = dijkstra(network, source, residual, targets=targets)
    reached = dist.reached(targets)
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("core.channel_search.single_source_calls")
        metrics.inc("core.channel_search.channels_found", len(reached))
    return prev, reached


def best_channels_from(
    network: QuantumNetwork,
    source: Hashable,
    targets: Iterable[Hashable],
    residual: Optional[CapacityLedger] = None,
) -> Dict[Hashable, Channel]:
    """Best channels from *source* to every reachable user in *targets*.

    One Dijkstra run serves all destinations (the paper's complexity
    optimization).  Unreachable targets are absent from the result.
    """
    target_list = list(targets)
    _require_users(network, target_list)
    prev, reached = _search_from(network, source, target_list, residual)
    params = network.params
    return {
        target: prev.channel(source, target, params) for target in reached
    }


class ChannelSearches:
    """Algorithm 1's searches within one greedy solve, kept while exact.

    The greedy tree builders (Algorithm 4's Prim growth, Algorithm 3's
    reconnect and N-FUSION's star) repeat the search from the same
    sources round after round, with fewer wanted targets and, after
    each reservation, a relay mask that can only have lost switches.
    Each source's search lives in one :class:`_SearchPool` and settles
    only as far as a step needs (the module docstring's *Lazy
    settling*): :meth:`best_among` settles the requested searches until
    the least wanted target weight ``w`` is known and each search's
    next entry lies above ``_within(w)``; :meth:`reach` settles one
    search to all its targets.

    A search runs again only when a fresh one could differ.  Blocking
    only removes paths and float path sums are monotone, so a node
    whose chain avoids the newly blocked switches keeps its weight and,
    without an exact tie (``prev.tied`` of :func:`relay_search`), its
    one predecessor reaching that weight.  For the switches blocked
    since a search was last checked:

    * a tied search runs again;
    * a switch a paused search has queued, or not reached, is closed
      in place: it was never expanded, so no other node's weight came
      through it;
    * a switch a paused search has settled is harmless when its subtree
      of settled nodes holds only switches and unwanted users: no
      queued node and no wanted target hangs on it.  Otherwise the
      search first settles to its targets under the mask it ran under,
      as the eager search would have, and is then complete;
    * a complete search runs again when its channel to a wanted target
      crosses one of them.

    So a search never runs again where the eager search, complete from
    the start, would not have.

    A step ranks its candidates by search weight and builds, once per
    kept search, only the channels within the rank margin of the
    least weight (the module docstring); only those can win
    :func:`~repro.core.problem.channel_sort_key`'s order.

    The solve must spend *ledger* only through :meth:`reserve`.  A
    source asked for a target its kept search was not run for searches
    again, and so does one left out of a step and asked again later;
    the greedy builders only ever drop targets and sources.  Each
    target is checked to be a quantum user once per solve, unless it is
    among *users*, ids the caller has checked already
    (:func:`~repro.core.problem.resolve_users` does).
    """

    def __init__(
        self,
        network: QuantumNetwork,
        ledger: CapacityLedger,
        users: Iterable[Hashable] = (),
    ) -> None:
        self._network = network
        self._ledger = ledger
        self._pool = _SearchPool.for_network(network)
        self._kept: Dict[Hashable, _Search] = {}
        #: Switches the solve's reservations took below 2 free qubits.
        self._blocked: List[Hashable] = []
        #: Targets known to be quantum users.
        self._users: Set[Hashable] = set(users)

    def best(
        self, source: Hashable, targets: Collection[Hashable]
    ) -> Optional[Tuple[Tuple, Channel]]:
        """``(channel_sort_key(c), c)`` for the best channel ``c`` from
        *source* to one of *targets* under the ledger, or ``None``."""
        return self.best_among(((source, targets),))

    def best_among(
        self, requests: Iterable[Tuple[Hashable, Collection[Hashable]]]
    ) -> Optional[Tuple[Tuple, Channel]]:
        """:meth:`best` over several ``(source, targets)`` *requests*:
        the least entry, the first in request and target order among
        equal ones.  The sources are searched in request order."""
        steps = []
        least = math.inf
        paused = False
        for source, targets in requests:
            search = self._keep(source, targets)
            steps.append((source, targets, search))
            paused = paused or search.state is not None
            weights = search.weights
            for target in targets:
                weight = weights.get(target)
                if weight is not None and weight < least:
                    least = weight
        if paused:

            def arrive(weight: float, search: _Search, node: int) -> float:
                nonlocal least
                if weight < least:
                    least = weight
                return _within(least)

            self._retire_others(steps)
            self._pool.settle(_within(least), arrive)
            self._pool.publish()
        if least == math.inf:
            return None  # reached weights are finite
        limit = _within(least)
        params = self._network.params
        best = None
        for source, targets, search in steps:
            weights = search.weights
            ranked = search.ranked
            for target in targets:
                weight = weights.get(target)
                if weight is None or weight > limit:
                    continue
                entry = ranked.get(target)
                if entry is None:
                    channel = search.prev.channel(source, target, params)
                    entry = ranked[target] = (channel_sort_key(channel), channel)
                if best is None or entry[0] < best[0]:
                    best = entry
        return best

    def reach(
        self, source: Hashable, targets: Collection[Hashable]
    ) -> Dict[Hashable, float]:
        """Search weight of each of *targets* that *source* reaches under
        the ledger, as :meth:`best` ranks them; builds no channel.  The
        search settles until every target is settled or unreachable."""
        search = self._keep(source, targets)
        if search.state is not None:
            self._retire_others(((source, targets, search),))
            self._pool.finish(search)
        weights = search.weights
        return {target: weights[target] for target in targets if target in weights}

    def reserve(self, channel: Channel) -> None:
        """Reserve *channel* on the ledger and note the switches it
        blocks."""
        ledger = self._ledger
        ledger.reserve_channel(channel)
        self._blocked.extend(
            s
            for s in channel.switches
            if ledger.available(s) < QUBITS_PER_CHANNEL
        )

    def _retire_others(
        self, steps: Sequence[Tuple[Hashable, Collection[Hashable], _Search]]
    ) -> None:
        """Retire the paused searches of sources a step left out, so
        that the pool settles only searches checked against every
        reservation."""
        if len(steps) < len(self._kept):
            asked = {source for source, _, _ in steps}
            for source, search in self._kept.items():
                if search.state is not None and source not in asked:
                    search.state = None
                    search.targets = set()  # asked again, it runs again

    def _keep(self, source: Hashable, targets: Collection[Hashable]) -> _Search:
        search = self._kept.get(source)
        if search is None or not self._exact(source, search, targets):
            if search is not None:
                search.state = None  # retired
            search = self._kept[source] = self._search(source, targets)
        return search

    def _search(self, source: Hashable, targets: Collection[Hashable]) -> _Search:
        users = self._users
        if not users.issuperset(targets):
            unchecked = [target for target in targets if target not in users]
            _require_users(self._network, unchecked)
            users.update(unchecked)
        target_list = list(targets)
        search = self._pool.open(
            self._network, source, self._ledger, target_list
        )
        search.targets = set(target_list)
        search.seen = len(self._blocked)
        search.ranked = {}
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("core.channel_search.single_source_calls")
        return search

    def _exact(
        self, source: Hashable, search: _Search, targets: Collection[Hashable]
    ) -> bool:
        """Whether *search* still answers a fresh search for *targets*;
        narrows it to them and closes the newly blocked switches it has
        not settled."""
        if not search.targets.issuperset(targets):
            return False
        blocked = self._blocked
        unchanged = search.seen == len(blocked)
        if (search.state is not None or not unchanged) and len(
            search.targets
        ) > len(targets):
            search.targets = set(targets)
            self._pool.narrow(search, search.targets)
        if unchanged:
            return True
        prev = search.prev
        if prev.tied:
            return False
        fresh = blocked[search.seen :]
        if search.state is not None and not self._pool.block(search, fresh):
            # Settle it to its targets under the mask it ran under, as
            # an eager search would have been; a tie hands it over under
            # the current mask, which a fresh search redoes.
            self._pool.finish(search)
            if search.prev is not prev:
                return False
        if search.state is None:
            weights = search.weights
            crossed = set(fresh)
            for target in targets:
                if target in weights and prev.relays_any(source, target, crossed):
                    return False
        search.seen = len(blocked)
        return True


def _pair_searches(
    network: QuantumNetwork,
    users: Sequence[Hashable],
    residual: Optional[CapacityLedger],
) -> Iterator[Tuple[Hashable, _PrevView, Dict[Hashable, float]]]:
    """Step 1 of Algorithm 2: one search per user for the later users,
    ``|U| - 1`` in all.  Yields ``(source, prev, reached weights)``."""
    _require_users(network, users)
    for index, source in enumerate(users[:-1]):
        prev, reached = _search_from(
            network, source, users[index + 1 :], residual
        )
        yield source, prev, reached


def all_pairs_best_channels(
    network: QuantumNetwork,
    users: List[Hashable],
    residual: Optional[CapacityLedger] = None,
) -> Dict[frozenset, Channel]:
    """Best channel for every unordered user pair (step 1 of Algorithm 2).

    Pairs with no feasible channel are absent.  Runs ``|U| - 1``
    single-source searches instead of ``O(|U|²)`` pairwise ones.
    """
    params = network.params
    channels: Dict[frozenset, Channel] = {}
    for source, prev, reached in _pair_searches(network, users, residual):
        for target in reached:
            channels[frozenset((source, target))] = prev.channel(
                source, target, params
            )
    return channels


def ranked_pair_channels(
    network: QuantumNetwork,
    users: List[Hashable],
    residual: Optional[CapacityLedger] = None,
    skip: Optional[Callable[[Hashable, Hashable], bool]] = None,
) -> Iterator[Channel]:
    """:func:`all_pairs_best_channels`' channels in
    :func:`~repro.core.problem.channel_sort_key` order (stable in pair
    order), built as the caller reaches them: Algorithm 2's scan.

    All ``|U| - 1`` searches start together in one
    :class:`_SearchPool`.  The pairs, sorted by search weight, are cut
    into groups wherever a weight lies more than the rank margin above
    the one before it (the module docstring), so every channel of a
    group ranks before every channel of the next.  A group's first pair
    is known once every search's next entry lies above the least
    settled pair; the group is complete once every search's next entry,
    and every pair a hand-over reached, lies beyond the margin of its
    last weight.  Its channels are then built and sorted by
    ``(channel_sort_key, (source index, target index))``, the eager
    sort's order.  The searches settle no further than the group the
    caller stops in.  A pair for which ``skip(source,
    target)`` holds when its group comes up is left out unbuilt; a
    Kruskal scan passes "already joined", a test that stays true once
    true.
    """
    _require_users(network, users)
    pool = _SearchPool.for_network(network)
    for index, source in enumerate(users[:-1]):
        pool.open(network, source, residual, users[index + 1 :])
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc(
            "core.channel_search.single_source_calls", len(pool.searches)
        )
    position = {user: index for index, user in enumerate(users)}
    ids = pool.graph.ids
    # (weight, (source index, target index), search, target id), for
    # every settled pair not yet in a group.
    known: List[Tuple[float, Tuple[int, int], _Search, Hashable]] = []

    def add(weight: float, search: _Search, target: Hashable) -> None:
        heapq.heappush(
            known, (weight, (search.key, position[target]), search, target)
        )

    def least_known(weight: float, search: _Search, node: int) -> float:
        add(weight, search, ids[node])
        return known[0][0]

    for search in pool.searches:
        if search.state is None:  # joined complete
            for target, weight in search.weights.items():
                add(weight, search, target)
    params = network.params
    while True:
        # The group's first pair is the least pair left: settle until
        # the pool's next entry lies above the least known pair.
        pool.settle(known[0][0] if known else math.inf, least_known)
        if not known:
            break
        pairs = [heapq.heappop(known)]
        last = pairs[0][0]

        def extend(weight: float, search: _Search, node: int) -> float:
            nonlocal last
            add(weight, search, ids[node])
            if weight <= _within(last) and weight > last:
                last = weight
            return _within(last)

        while True:
            # Pairs a hand-over reached may extend the group once they
            # are moved in; settle again until it stops growing.
            limit = _within(last)
            pool.settle(limit, extend)
            while known and known[0][0] <= _within(last):
                pairs.append(heapq.heappop(known))
                last = max(last, pairs[-1][0])
            if _within(last) == limit:
                break
        pool.publish()
        group = []
        for _, pair, search, target in pairs:
            source = users[pair[0]]
            if skip is not None and skip(source, target):
                continue
            channel = search.prev.channel(source, target, params)
            group.append((channel_sort_key(channel), pair, channel))
        group.sort(key=itemgetter(0, 1))
        for entry in group:
            yield entry[2]
    pool.publish()
