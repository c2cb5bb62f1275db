"""GraphReplayer: a bare-graph WAL follower with a bounded rollback window.

The shadow auditor's state machine.  Unlike a :class:`~repro.cluster.Replica`
it maintains **no index at all** — just the graph — because the trusted
baseline recomputes every audited answer by direct traversal
(:func:`repro.engine.baseline_answer`).  What it adds over a plain replay
is *time travel*: every applied WAL batch records the inverse operations
needed to undo it, kept in a bounded window, so a sampled answer claiming
sequence number ``k`` can be re-derived at exactly the graph state after
batch ``k`` even though the replayer has already advanced past it —
rewind, recompute, roll forward.

WAL sequence numbers are contiguous (one record per applied batch, the
tailer enforces ``seq == last + 1``), which is what makes position
arithmetic safe here.
"""

from repro.workloads.updates import (
    DeleteEdge,
    DeleteVertex,
    InsertEdge,
    InsertVertex,
    SetWeight,
)


def _is_weighted(graph):
    return hasattr(graph, "set_weight")


def apply_graph_update(graph, update):
    """Apply one WAL update to a bare graph; returns LIFO undo thunks.

    Handles every WAL-loggable update type.  Inverses are captured at
    apply time — a deleted edge records its weight, a deleted vertex its
    incident edges (with directions/weights), an inserted edge the
    endpoints it auto-created — so running the thunks in reverse order
    restores the exact prior graph.
    """
    undos = []
    if isinstance(update, InsertEdge):
        for v in (update.u, update.v):
            if not graph.has_vertex(v):
                graph.add_vertex(v)
                undos.append((graph.remove_vertex, (v,)))
        if _is_weighted(graph):
            graph.add_edge(update.u, update.v, update.weight)
        else:
            graph.add_edge(update.u, update.v)
        undos.append((graph.remove_edge, (update.u, update.v)))
    elif isinstance(update, DeleteEdge):
        if _is_weighted(graph):
            weight = graph.weight(update.u, update.v)
            graph.remove_edge(update.u, update.v)
            undos.append((graph.add_edge, (update.u, update.v, weight)))
        else:
            graph.remove_edge(update.u, update.v)
            undos.append((graph.add_edge, (update.u, update.v)))
    elif isinstance(update, SetWeight):
        old = graph.weight(update.u, update.v)
        graph.set_weight(update.u, update.v, update.weight)
        undos.append((graph.set_weight, (update.u, update.v, old)))
    elif isinstance(update, InsertVertex):
        graph.add_vertex(update.v)
        undos.append((graph.remove_vertex, (update.v,)))
        weighted = _is_weighted(graph)
        for spec in update.edges:
            if weighted:
                u, w = spec
                graph.add_edge(update.v, u, w)
            else:
                graph.add_edge(update.v, spec)
            # remove_vertex (the undo above) drops the edges too, so the
            # edge needs no thunk of its own — but only because the vertex
            # is guaranteed gone again by the time its thunk runs (LIFO).
    elif isinstance(update, DeleteVertex):
        removed = graph.remove_vertex(update.v)
        # Thunks run in LIFO order, so the vertex re-creation is appended
        # *after* the edges: on rewind it executes first, and the edges
        # then have both endpoints back.
        if _is_weighted(graph):
            for u, w, weight in removed:
                undos.append((graph.add_edge, (u, w, weight)))
        else:
            for u, w in removed:
                undos.append((graph.add_edge, (u, w)))
        undos.append((graph.add_vertex, (update.v,)))
    else:
        raise TypeError(f"unsupported WAL update {update!r}")
    return undos


class GraphReplayer:
    """Follow a WAL over a bare graph, keeping a bounded rewind window.

    Parameters
    ----------
    graph:
        The graph at ``seq`` (typically rehydrated from a checkpoint's
        payload).  Owned by the replayer from here on.
    seq:
        The WAL sequence number the graph currently reflects.
    history:
        How many applied batches stay rewindable.  Samples older than
        ``seq - history`` can no longer be audited (the shadow auditor
        counts them as skipped, never as divergences).
    """

    def __init__(self, graph, seq, history=128):
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history!r}")
        self.graph = graph
        self._seq = seq
        self._history = history
        self._window = []  # [(seq, [updates], [undo thunks])], oldest first

    @property
    def seq(self):
        """The WAL sequence number the graph currently reflects."""
        return self._seq

    @property
    def oldest_rewindable(self):
        """The lowest seq :meth:`answer_at` can still reach."""
        if not self._window:
            return self._seq
        return self._window[0][0] - 1

    def apply_batch(self, seq, updates):
        """Apply one WAL record; ``seq`` must be contiguous."""
        if seq != self._seq + 1:
            raise ValueError(
                f"non-contiguous replay: got seq {seq} after {self._seq}"
            )
        undos = []
        for update in updates:
            undos.extend(apply_graph_update(self.graph, update))
        self._window.append((seq, list(updates), undos))
        if len(self._window) > self._history:
            self._window.pop(0)
        self._seq = seq

    def answer_at(self, seq, answer_fn):
        """Evaluate ``answer_fn(graph)`` at the state after batch ``seq``.

        Rewinds by running the recorded undo thunks (newest batch first,
        thunks in LIFO order within a batch), calls ``answer_fn``, then
        rolls forward by re-applying the forward updates — the replayer
        ends exactly where it started.  Raises :class:`LookupError` when
        ``seq`` is outside the window (ahead of the stream, or older than
        the retained history).
        """
        if seq > self._seq or seq < self.oldest_rewindable:
            raise LookupError(
                f"seq {seq} is outside the rewind window "
                f"[{self.oldest_rewindable}, {self._seq}]"
            )
        to_redo = [entry for entry in self._window if entry[0] > seq]
        for _, _, undos in reversed(to_redo):
            for fn, args in reversed(undos):
                fn(*args)
        try:
            return answer_fn(self.graph)
        finally:
            for entry_seq, updates, _ in to_redo:
                undos = []
                for update in updates:
                    undos.extend(apply_graph_update(self.graph, update))
                # Re-captured thunks replace the spent ones, so the next
                # rewind through this batch undoes the fresh application.
                for i, entry in enumerate(self._window):
                    if entry[0] == entry_seq:
                        self._window[i] = (entry_seq, updates, undos)
                        break

    def __repr__(self):
        return (
            f"GraphReplayer(seq={self._seq}, "
            f"window=[{self.oldest_rewindable}, {self._seq}])"
        )
