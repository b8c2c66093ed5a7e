"""The message-passing network.

:class:`Network` owns the link set of the augmented graph and delivers
messages with per-link delays drawn from :class:`~repro.net.delays.
DelayModel` instances.  Every delay is validated against the model
envelope ``[d - U, d]`` — the paper's adversary controls *which* delay
a message experiences but only within the envelope; nodes (not links)
are the Byzantine entities.

Byzantine node power is expressed through the sending API:

* honest nodes call :meth:`Network.broadcast`, which delivers one copy
  to every neighbor with independent delay draws;
* Byzantine nodes may call :meth:`Network.send` per neighbor (no
  broadcast obligation — "they are not required to communicate by
  broadcast") and may pick the exact delay within the envelope via
  :meth:`Network.send_with_delay`.

Dynamic topologies
------------------
Links can be *deactivated* and re-activated mid-run
(:meth:`Network.set_link_active`), which is how
:class:`~repro.topology.schedule.TopologySchedule` events reach the
wire: a down link silently carries nothing (sends are dropped,
broadcasts skip it) while the structural link set — and therefore
:meth:`neighbors` — is unchanged.  Messages already in flight when a
link goes down still deliver (the packet left the sender while the
link was up), unless the deactivation asked for in-flight quarantine
(``set_link_active(..., drop_in_flight=True)`` — the crashed-node
semantics, where queued deliveries die with the node).  Static runs
never populate the inactive set, so the hot paths stay byte-identical
to the static-only implementation.

Fault injection (lossy links, out-of-model delays)
--------------------------------------------------
A :class:`~repro.net.loss.LossModel` attached via
:meth:`Network.set_loss_model` may eat messages on otherwise-active
links.  The loss decision happens *before* the delay draw, from the
loss model's own seeded stream, so attaching (or detaching) a loss
model never perturbs delay streams — a run without one is
byte-identical to a run built before loss existed.  Drops are
accounted by cause: ``dropped_link_down`` (deactivated link),
``dropped_loss`` (loss model), ``dropped_in_flight`` (quarantined by a
``drop_in_flight`` deactivation); the legacy ``messages_dropped`` name
remains as their sum.

Delay models declaring ``in_model = False`` (a user-supplied
``delay_model`` factory may return one) bypass the ``[d - U, d]``
envelope check — only non-negativity is enforced — so a run can
measure degradation under out-of-model delays.  See
:class:`~repro.net.delays.DelayModel`.

Batched delivery
----------------
In-flight messages dominate the event population of large runs (at
diameter 64 they outnumber every alarm and sampler event combined), so
the network does **not** allocate one kernel event per message.
Instead every send pushes a plain ``(time, seq, receiver, message,
sender)`` tuple onto an internal delivery heap — with ``seq`` drawn
from the *kernel's* sequence counter, exactly the number a
per-message kernel event would have carried; ``sender`` only serves
in-flight quarantine — and a single *flush* event, co-keyed with the
earliest pending delivery, wakes the network up.  One wake-up then
drains every consecutively-due delivery (all entries whose ``(time,
seq)`` key precedes the kernel's next queued event and the current run
horizon), advancing ``sim.now`` per entry.

Because seq allocation, delivery times, and the position of every
delivery relative to every other kernel event are those of one kernel
event per message, handler execution order is **bit-identical** to
that per-message stream; only ``Simulator.events_processed`` shrinks
(one flush per batch instead of one event per message).  The tests
keep the per-message stream as the oracle the batched path is
compared against.

Fan-out plans
-------------
Broadcasts dominate the message volume (the MAX-pulse flood above
all), so :meth:`Network.broadcast` resolves a sender's neighbours, each
link's delay-model ``draw`` and its ``in_model`` flag once, into a
per-sender *fan-out plan*: a tuple of ``(receiver, draw, in_model)``
rows in neighbour insertion order, built on the sender's first
broadcast.  :meth:`Network.add_link` and
:meth:`Network.set_link_delay_model` drop the plans they affect.
Everything else stays per copy, in the order :meth:`Network.send`
runs it — the down-link test, the loss test, one ``draw``, the
envelope check, the counters, the kernel ``seq`` and the flush-arming
test — so a broadcast is observationally identical to one ``send``
per neighbour.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import NetworkError
from repro.net.delays import DelayModel
from repro.net.loss import LossModel
from repro.sim.kernel import Simulator

#: Numeric slack when validating drawn delays against [d-U, d].
_ENVELOPE_TOL = 1e-9

#: A message handler: ``handler(message, receive_time)``.
Handler = Callable[[Any, float], None]

#: A delay model's bound ``draw(sender, receiver, now)``.
DrawFn = Callable[[int, int, float], float]


class Network:
    """Point-to-point network over an explicit link set.

    Parameters
    ----------
    sim:
        The simulation kernel.
    d, u:
        Maximum delay and delay uncertainty; all deliveries take time
        in ``[d - u, d]``.
    default_delay_model:
        Model used by links that do not override it.  ``None`` means
        links must each specify their own model.
    """

    def __init__(self, sim: Simulator, d: float, u: float,
                 default_delay_model: DelayModel | None = None) -> None:
        if d <= 0:
            raise NetworkError(f"d must be positive: {d!r}")
        if not 0 <= u <= d:
            raise NetworkError(f"need 0 <= U <= d: U={u!r}, d={d!r}")
        self._sim = sim
        self._d = d
        self._u = u
        self._default_model = default_delay_model
        self._handlers: dict[int, Handler] = {}
        self._adjacency: dict[int, list[int]] = {}
        self._link_models: dict[tuple[int, int], DelayModel] = {}
        #: Per-sender fan-out plans (module docstring), built by the
        #: first broadcast and dropped when a link or model changes.
        self._plans: dict[int, tuple[tuple[int, DrawFn, bool], ...]] = {}
        #: Directed pairs currently down (both directions are stored,
        #: so membership tests need no normalization).  Empty for
        #: static topologies — the common case the hot paths check
        #: with one falsy test.
        self._inactive: set[tuple[int, int]] = set()
        #: Pending ``(time, seq, receiver, message, sender)``
        #: deliveries; ``seq`` comes from the kernel's counter so
        #: ordering against kernel events matches one kernel event
        #: per message.
        self._pending: list[tuple[float, int, int, Any, int]] = []
        #: ``(time, seq)`` of the earliest armed flush event, or
        #: ``None``.  Invariant: whenever ``_pending`` is non-empty
        #: (and no drain is active), a flush is armed at a key <= the
        #: head entry's key.
        self._flush_key: tuple[float, int] | None = None
        #: True while :meth:`_flush` drains; sends occurring inside a
        #: drain skip arming (the drain re-arms once at its end).
        self._draining = False
        #: Stable bound-method reference: wake-ups are always armed
        #: with this exact object so the drain can recognize (and
        #: absorb) this network's own events by identity.
        self._flush_cb = self._flush
        #: Message-loss model on active links, or ``None`` (reliable
        #: wire).  ``None`` keeps the hot paths on one falsy test.
        self._loss: LossModel | None = None
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Drops by cause; ``messages_dropped`` (property) is the sum.
        self.dropped_link_down = 0
        self.dropped_loss = 0
        self.dropped_in_flight = 0

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    @property
    def d(self) -> float:
        return self._d

    @property
    def u(self) -> float:
        return self._u

    @property
    def messages_dropped(self) -> int:
        """Total drops, all causes (the pre-split legacy counter)."""
        return (self.dropped_link_down + self.dropped_loss
                + self.dropped_in_flight)

    def set_loss_model(self, model: LossModel | None) -> None:
        """Attach (or clear) the message-loss model.

        The model applies to every active link; it is consulted before
        the delay draw, so it must own a dedicated RNG stream (the
        builders derive ``"net/loss"``) to keep delay streams
        untouched.
        """
        if model is not None and not isinstance(model, LossModel):
            raise NetworkError(
                f"loss model must be a LossModel: {model!r}")
        self._loss = model

    def add_node(self, node_id: int,
                 handler: Handler | None = None) -> None:
        """Register a node; ``handler`` may be attached later."""
        if node_id in self._adjacency:
            raise NetworkError(f"duplicate node id: {node_id!r}")
        self._adjacency[node_id] = []
        if handler is not None:
            self._handlers[node_id] = handler

    def set_handler(self, node_id: int, handler: Handler) -> None:
        """Attach or replace the message handler of ``node_id``."""
        if node_id not in self._adjacency:
            raise NetworkError(f"unknown node: {node_id!r}")
        self._handlers[node_id] = handler

    def add_link(self, a: int, b: int,
                 delay_model: DelayModel | None = None) -> None:
        """Add the undirected link ``{a, b}``."""
        if a == b:
            raise NetworkError(f"self-links are not allowed: {a!r}")
        for end in (a, b):
            if end not in self._adjacency:
                raise NetworkError(f"unknown node: {end!r}")
        if b in self._adjacency[a]:
            raise NetworkError(f"duplicate link: {{{a!r}, {b!r}}}")
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        if delay_model is not None:
            self._link_models[(a, b)] = delay_model
            self._link_models[(b, a)] = delay_model
        self._plans.pop(a, None)
        self._plans.pop(b, None)

    def set_link_delay_model(self, a: int, b: int, model: DelayModel,
                             direction: str = "both") -> None:
        """Override the delay model of an existing link.

        ``direction`` is ``"both"``, ``"ab"`` (messages a→b only) or
        ``"ba"``.
        """
        if b not in self._adjacency.get(a, ()):
            raise NetworkError(f"no such link: {{{a!r}, {b!r}}}")
        if direction not in ("both", "ab", "ba"):
            raise NetworkError(f"bad direction: {direction!r}")
        if direction in ("both", "ab"):
            self._link_models[(a, b)] = model
            self._plans.pop(a, None)
        if direction in ("both", "ba"):
            self._link_models[(b, a)] = model
            self._plans.pop(b, None)

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        """Neighbors of ``node_id`` in deterministic insertion order."""
        try:
            return tuple(self._adjacency[node_id])
        except KeyError:
            raise NetworkError(f"unknown node: {node_id!r}") from None

    def has_link(self, a: int, b: int) -> bool:
        return b in self._adjacency.get(a, ())

    def set_link_active(self, a: int, b: int, active: bool,
                        drop_in_flight: bool = False) -> None:
        """Activate or deactivate the existing link ``{a, b}``.

        Deactivation is a *transmission* state, not a structural one:
        the link (and delay model) stays registered, but sends are
        dropped and broadcasts skip it until re-activation.
        Idempotent in both directions.

        By default messages already in flight still deliver (the
        packet left the sender while the link was up).
        ``drop_in_flight=True`` additionally quarantines every queued
        delivery on the link (both directions) — the crashed-node
        semantics, where the receiver's queue dies with it.  Counted
        in ``dropped_in_flight``.
        """
        if b not in self._adjacency.get(a, ()):
            raise NetworkError(f"no such link: {{{a!r}, {b!r}}}")
        if active:
            self._inactive.discard((a, b))
            self._inactive.discard((b, a))
        else:
            self._inactive.add((a, b))
            self._inactive.add((b, a))
            if drop_in_flight:
                self._quarantine_in_flight(((a, b), (b, a)))

    def _quarantine_in_flight(
            self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Drop queued deliveries traversing the directed ``pairs``.

        Filters the delivery heap without touching sequence numbers,
        so the surviving deliveries keep their exact order.
        """
        directed = set(pairs)
        pending = self._pending
        kept = [entry for entry in pending
                if (entry[4], entry[2]) not in directed]
        dropped = len(pending) - len(kept)
        if dropped:
            # In place: a running drain holds the list by alias.
            pending[:] = kept
            heapify(pending)
        self.dropped_in_flight += dropped

    def link_active(self, a: int, b: int) -> bool:
        """Whether the existing link ``{a, b}`` currently carries
        messages."""
        if b not in self._adjacency.get(a, ()):
            raise NetworkError(f"no such link: {{{a!r}, {b!r}}}")
        return (a, b) not in self._inactive

    def node_ids(self) -> tuple[int, ...]:
        return tuple(self._adjacency)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def _model_for(self, sender: int, receiver: int) -> DelayModel | None:
        """The link's own delay model, else the network default."""
        model = self._link_models.get((sender, receiver))
        return self._default_model if model is None else model

    def _no_model(self, sender: int, receiver: int, now: float) -> float:
        """The ``draw`` of a link without any delay model: raises."""
        raise NetworkError(
            f"link ({sender!r}, {receiver!r}) has no delay model and "
            f"no network default is set")

    def _validate_delay(self, delay: float) -> None:
        low = self._d - self._u - _ENVELOPE_TOL
        high = self._d + _ENVELOPE_TOL
        if not low <= delay <= high:
            raise NetworkError(
                f"delay {delay!r} outside envelope [{self._d - self._u!r}, "
                f"{self._d!r}]")

    def _validate_drawn(self, in_model: bool, delay: float) -> None:
        """Envelope-check a model draw; out-of-model models (fault
        injection) only need non-negativity."""
        if in_model:
            self._validate_delay(delay)
        elif delay < 0:
            raise NetworkError(
                f"delay must be non-negative: {delay!r}")

    def send(self, sender: int, receiver: int, message: Any) -> None:
        """Unicast ``message`` with a model-drawn delay.

        A deactivated link drops the message silently (counted in
        ``dropped_link_down``): the sender cannot observe a down link.
        An attached loss model may also eat it (``dropped_loss``) —
        decided before the delay draw, so the delay stream is
        loss-independent.
        """
        if receiver not in self._adjacency.get(sender, ()):
            raise NetworkError(
                f"{sender!r} is not adjacent to {receiver!r}")
        if self._inactive and (sender, receiver) in self._inactive:
            self.dropped_link_down += 1
            return
        if self._loss is not None and self._loss.drop(
                sender, receiver, self._sim.now):
            self.dropped_loss += 1
            return
        model = self._model_for(sender, receiver)
        if model is None:
            self._no_model(sender, receiver, self._sim.now)
        delay = model.draw(sender, receiver, self._sim.now)
        self._validate_drawn(model.in_model, delay)
        self.messages_sent += 1
        self._schedule_delivery(delay, receiver, message, sender)

    def send_with_delay(self, sender: int, receiver: int, message: Any,
                        delay: float) -> None:
        """Unicast with an explicitly chosen delay (adversary API).

        The delay must still lie in ``[d - U, d]``: Byzantine nodes
        control *when* and *what* they send, but physics still applies
        to the wire — including an attached loss model, which eats
        Byzantine traffic with the same probability as honest traffic.
        """
        if receiver not in self._adjacency.get(sender, ()):
            raise NetworkError(
                f"{sender!r} is not adjacent to {receiver!r}")
        if self._inactive and (sender, receiver) in self._inactive:
            self.dropped_link_down += 1
            return
        if self._loss is not None and self._loss.drop(
                sender, receiver, self._sim.now):
            self.dropped_loss += 1
            return
        self._validate_delay(delay)
        self.messages_sent += 1
        self._schedule_delivery(delay, receiver, message, sender)

    def broadcast(self, sender: int, message: Any) -> int:
        """Send ``message`` to every neighbor; returns the copy count.

        Each copy experiences an independent delay draw, matching the
        model: "when a (correct) node broadcasts a pulse, all of its
        neighbors receive the pulse after some delay, which is itself
        subject to some uncertainty".

        Observationally identical to :meth:`send` to each neighbour in
        insertion order: the same per-copy checks, draws, counters and
        kernel sequence numbers.  The loop runs over the sender's
        fan-out plan (module docstring) with the envelope check and
        the delivery queueing of :meth:`_schedule_delivery` inlined,
        as this is the hottest send path.
        """
        plan = self._plans.get(sender)
        if plan is None:
            plan = self._plan_for(sender)
        sim = self._sim
        now = sim._now
        queue = sim._queue
        pending = self._pending
        inactive = self._inactive
        loss = self._loss
        low = self._d - self._u - _ENVELOPE_TOL
        high = self._d + _ENVELOPE_TOL
        copies = 0
        for receiver, draw, in_model in plan:
            if inactive and (sender, receiver) in inactive:
                self.dropped_link_down += 1
                continue
            if loss is not None and loss.drop(sender, receiver, now):
                self.dropped_loss += 1
                continue
            delay = draw(sender, receiver, now)
            if not (low <= delay <= high if in_model else delay >= 0):
                self._validate_drawn(in_model, delay)  # raises
            self.messages_sent += 1
            copies += 1
            # Inlined _schedule_delivery (see there).
            time = now + delay
            if time < now:
                time = now
            seq = queue._seq
            queue._seq = seq + 1
            heappush(pending, (time, seq, receiver, message, sender))
            if self._draining:
                continue
            key = self._flush_key
            if key is None or time < key[0] or (time == key[0]
                                                and seq < key[1]):
                self._flush_key = (time, seq)
                sim.call_at_key(time, seq, self._flush_cb, time, seq)
        return copies

    def _plan_for(self, sender: int) -> tuple[tuple[int, DrawFn, bool], ...]:
        """Build and keep ``sender``'s fan-out plan."""
        neighbors = self._adjacency.get(sender)
        if neighbors is None:
            raise NetworkError(f"unknown node: {sender!r}")
        rows = []
        for receiver in neighbors:
            model = self._model_for(sender, receiver)
            if model is None:
                # Raises when a copy is drawn, as send does.
                rows.append((receiver, self._no_model, True))
            else:
                rows.append((receiver, model.draw, model.in_model))
        plan = self._plans[sender] = tuple(rows)
        return plan

    @property
    def pending_deliveries(self) -> int:
        """In-flight messages not yet handed to a receiver (the
        delivery heap's size)."""
        return len(self._pending)

    def _schedule_delivery(self, delay: float, receiver: int,
                           message: Any, sender: int) -> None:
        """Queue one delivery.

        The entry takes the kernel sequence number a per-message
        kernel event would have consumed, so ordering against every
        other kernel event is unchanged; a flush wake-up is (re)armed
        whenever this entry becomes the earliest pending delivery.
        ``sender`` rides along (heap keys are the first two elements,
        so ordering is untouched) purely for in-flight quarantine
        bookkeeping.
        """
        sim = self._sim
        now = sim._now
        time = now + delay
        if time < now:
            # A few-ulp negative draw inside the validation tolerance;
            # clamp exactly like Simulator.call_in would.
            time = now
        # Consume one kernel seq without queueing an event (see
        # Simulator.call_at_key); this runs once per message.
        queue = sim._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(self._pending, (time, seq, receiver, message, sender))
        if self._draining:
            # The active drain re-checks the pending head every step
            # and re-arms once at its end; arming here would only
            # churn wake-up events the drain immediately absorbs.
            return
        key = self._flush_key
        if key is None or time < key[0] or (time == key[0]
                                            and seq < key[1]):
            self._flush_key = (time, seq)
            sim.call_at_key(time, seq, self._flush_cb, time, seq)

    def _flush(self, time: float, seq: int) -> None:
        """Deliver every consecutively-due pending message (hot path).

        Fired by a kernel wake-up co-keyed with a delivery entry.  The
        drain hands over every pending entry whose ``(time, seq)`` key
        precedes both the kernel's next *foreign* queued event and the
        active run horizon — exactly the entries a per-message stream
        would have fired as individual events before the kernel got to
        do anything else — advancing ``sim.now`` to each entry's own
        due time.  The network's own not-yet-fired wake-up events (and
        lazily-cancelled entries) at the kernel head are absorbed
        rather than treated as drain boundaries, so a delivery-bound
        workload drains in one wake-up per foreign-event gap instead
        of one per arm.
        """
        if self._flush_key is not None and self._flush_key[0] == time \
                and self._flush_key[1] == seq:
            self._flush_key = None
        sim = self._sim
        queue = sim._queue
        pending = self._pending
        handlers_get = self._handlers.get
        kernel_heap = queue._heap
        horizon = sim._horizon
        heappop_ = heappop
        flush_cb = self._flush_cb
        flush_key = self._flush_key
        self._draining = True
        try:
            while pending:
                head = pending[0]
                t = head[0]
                if t > horizon:
                    break
                while kernel_heap:
                    k = kernel_heap[0]
                    event = k[2]
                    if event.cancelled:
                        # The kernel loop would skip it anyway.
                        heappop_(kernel_heap)
                        continue
                    if event.callback is flush_cb:
                        # One of our own wake-ups: absorb it into this
                        # drain instead of bouncing through the kernel.
                        heappop_(kernel_heap)
                        event.fired = True
                        queue._live -= 1
                        if flush_key is not None and k[0] == flush_key[0] \
                                and k[1] == flush_key[1]:
                            flush_key = None
                        continue
                    break
                if kernel_heap:
                    k = kernel_heap[0]
                    if t > k[0] or (t == k[0] and head[1] > k[1]):
                        break
                heappop_(pending)
                # Monotonic by heap order (every entry key is >= the
                # flush key that woke us); assigning directly skips a
                # method call per message.
                sim._now = t
                # Counted before the handler runs, as one kernel event
                # per message would: handlers reading the public
                # counter mid-run see the per-message values.
                self.messages_delivered += 1
                handler = handlers_get(head[2])
                if handler is not None:
                    handler(head[3], t)
        finally:
            self._draining = False
            self._flush_key = flush_key
            if pending:
                head = pending[0]
                if flush_key is None or head[0] < flush_key[0] \
                        or (head[0] == flush_key[0]
                            and head[1] < flush_key[1]):
                    self._flush_key = (head[0], head[1])
                    sim.call_at_key(head[0], head[1], self._flush_cb,
                                    head[0], head[1])

