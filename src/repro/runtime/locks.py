"""Mobile-object locking (§4.4).

Two nearly simultaneous invocations can apply different mobility attributes
to one object, each naming a different computation target; interleaving
their move protocols would clone or strand the object.  MAGE therefore
gives every mobile object a lock queue at its current host:

* a request whose target **is** the hosting namespace receives a **stay**
  lock (shared — many stays coexist, and the object cannot leave);
* any other target receives a **move** lock (exclusive — the holder may
  ship the object away).

"Because object migration is so expensive, MAGE's current locking
implementation unfairly favors invocations that stay-lock their object":
under the default *unfair* policy, stay requests are granted whenever no
move lock is held, jumping ahead of queued move requests (which can
starve).  The ``fair`` policy is strict FIFO — the ablation knob for the
fairness claim measured by the Figure 8 bench.

When the object departs, waiting requests fail with
:class:`~repro.errors.LockMovedError` carrying the new location, so the
requester re-acquires at the new host — locks do not follow the object.

A grant is held until its holder releases it: there is no lease.  A
grant whose reply reached its requester with nobody waiting is released
by that requester (DESIGN.md, "The chase").
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.errors import LockError, LockMovedError, LockTimeoutError
from repro.net.deadline import Deadline
from repro.util.ids import fresh_token

STAY = "stay"
MOVE = "move"


@dataclass(frozen=True)
class LockGrant:
    """A granted stay or move lock."""

    token: str
    kind: str          # STAY or MOVE
    name: str
    location: str      # namespace hosting the object when granted
    requester: str


@dataclass
class _Waiter:
    """One queued request (fair-mode ordering and wakeup bookkeeping)."""

    seq: int
    kind: str


@dataclass
class _NameLock:
    """Lock state for one mobile object at this host."""

    stay_holders: dict = field(default_factory=dict)   # token -> LockGrant
    move_holder: LockGrant | None = None
    queue: deque = field(default_factory=deque)        # of _Waiter
    moved_to: str | None = None
    next_seq: int = 0
    #: The object is mid-departure (a streamed transfer is in flight):
    #: new grants are withheld until the transfer commits (waiters then
    #: fail over to the new host) or aborts (grants resume here).
    departing: bool = False


@dataclass
class LockStats:
    """Counters the Figure 8 bench reads."""

    stays_granted: int = 0
    moves_granted: int = 0
    stay_waits: int = 0
    move_waits: int = 0
    moved_rejections: int = 0


class LockManager:
    """Stay/move lock queues for the objects hosted by one namespace.

    The manager runs no timer: a grant is held until :meth:`release`.
    One made after its request's deadline expired is released at grant
    time by the dispatcher; one whose caller stopped waiting later is
    released by the requester's runtime.
    """

    def __init__(self, node_id: str, fair: bool = False) -> None:
        self.node_id = node_id
        self.fair = fair
        self._names: dict[str, _NameLock] = {}
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self.stats = LockStats()

    # -- acquisition -----------------------------------------------------------

    def acquire(
        self,
        name: str,
        target: str,
        requester: str,
        timeout_ms: float | None = None,
        deadline: Deadline | None = None,
    ) -> LockGrant:
        """Block until the lock is granted.

        The kind is decided here, not by the caller: stay if ``target`` is
        this namespace, move otherwise (paper §4.4).

        The wait is bounded by ``timeout_ms`` and/or ``deadline`` — the
        tighter wins.  The dispatcher passes the request's propagated
        dispatch deadline here, so a queued lock request never outlives
        the budget of the caller that sent it.

        Raises :class:`LockMovedError` if the object departs while waiting
        and :class:`LockTimeoutError` on deadline expiry.
        """
        kind = STAY if target == self.node_id else MOVE
        if timeout_ms is not None and timeout_ms < 0:
            raise LockError(f"timeout_ms must be non-negative, got {timeout_ms}")
        if timeout_ms is not None:
            deadline = Deadline.tighter(deadline, Deadline.after_ms(timeout_ms))
        with self._cond:
            state = self._names.setdefault(name, _NameLock())
            if state.moved_to is not None:
                self.stats.moved_rejections += 1
                raise LockMovedError(name, state.moved_to)
            waiter = _Waiter(seq=state.next_seq, kind=kind)
            state.next_seq += 1
            state.queue.append(waiter)
            first_pass = True
            try:
                while True:
                    if state.moved_to is not None:
                        self.stats.moved_rejections += 1
                        raise LockMovedError(name, state.moved_to)
                    if self._grantable(state, waiter):
                        state.queue.remove(waiter)
                        return self._grant_locked(state, name, kind, requester)
                    if first_pass:
                        first_pass = False
                        if kind == STAY:
                            self.stats.stay_waits += 1
                        else:
                            self.stats.move_waits += 1
                    remaining = None
                    if deadline is not None:
                        remaining = deadline.remaining_s()
                        if remaining <= 0:
                            raise LockTimeoutError(
                                f"{kind} lock on {name!r} timed out "
                                f"(waited out its deadline"
                                + (f"; timeout_ms={timeout_ms}" if timeout_ms
                                   is not None else "") + ")"
                            )
                    self._cond.wait(timeout=remaining)
            except BaseException:
                if waiter in state.queue:
                    state.queue.remove(waiter)
                raise

    def _grantable(self, state: _NameLock, waiter: _Waiter) -> bool:
        if state.departing:
            # A streamed transfer is in flight: granting now would let a
            # stay-lock holder observe the object while the commit is
            # about to evict it (the old single-frame transfer window was
            # one call wide; the streaming window is long enough that this
            # race must be closed, not ignored).  Waiters queue and are
            # woken by the departure's commit or abort.
            return False
        if self.fair:
            # Strict FIFO: only the head of the queue may be considered,
            # and it needs full compatibility with current holders.
            if state.queue[0] is not waiter:
                return False
            if waiter.kind == STAY:
                return state.move_holder is None
            return state.move_holder is None and not state.stay_holders
        # Unfair (paper default): stays bypass any queued moves.
        if waiter.kind == STAY:
            return state.move_holder is None
        # Moves wait for exclusivity and go FIFO among themselves.
        earlier_move_waiting = any(
            w.kind == MOVE and w.seq < waiter.seq for w in state.queue
        )
        return (
            state.move_holder is None
            and not state.stay_holders
            and not earlier_move_waiting
        )

    def _grant_locked(self, state: _NameLock, name: str, kind: str,
                      requester: str) -> LockGrant:
        grant = LockGrant(
            token=fresh_token("lock"),
            kind=kind,
            name=name,
            location=self.node_id,
            requester=requester,
        )
        if kind == STAY:
            state.stay_holders[grant.token] = grant
            self.stats.stays_granted += 1
        else:
            state.move_holder = grant
            self.stats.moves_granted += 1
        return grant

    # -- release / movement ------------------------------------------------------

    def release(self, name: str, token: str) -> None:
        """Release a grant; wakes compatible waiters."""
        with self._cond:
            state = self._names.get(name)
            if state is None:
                raise LockError(f"no lock state for {name!r} at {self.node_id!r}")
            if token in state.stay_holders:
                del state.stay_holders[token]
            elif state.move_holder is not None and state.move_holder.token == token:
                state.move_holder = None
            else:
                raise LockError(f"token {token!r} holds no lock on {name!r}")
            self._maybe_forget_locked(name, state)
            self._cond.notify_all()

    def mark_moved(self, name: str, new_location: str) -> None:
        """The object departed: fail waiters over to the new host."""
        with self._cond:
            state = self._names.setdefault(name, _NameLock())
            state.moved_to = new_location
            state.departing = False
            self._cond.notify_all()

    def mark_arrived(self, name: str) -> None:
        """The object (re-)arrived here: accept lock requests again."""
        with self._cond:
            state = self._names.setdefault(name, _NameLock())
            state.moved_to = None
            state.departing = False
            self._cond.notify_all()

    def begin_departure(self, name: str) -> None:
        """A streamed transfer of ``name`` is starting: withhold new grants.

        Requests arriving during the stream queue instead of being
        granted; :meth:`mark_moved` (commit) fails them over to the new
        host and :meth:`abort_departure` (stream failed) resumes granting
        here.  Idempotent; purely local (no messages), so traces are
        unchanged.
        """
        with self._cond:
            state = self._names.setdefault(name, _NameLock())
            state.departing = True

    def wait_departed(self, name: str, deadline: Deadline | None = None) -> bool:
        """Block while a departure of ``name`` from here is under way.

        An arrival of the same name must wait it out: the object may come
        straight back before the sender evicted its copy (the receiver of
        an agent's hop queues the next step before it acks), and storing
        it earlier would let that eviction remove the copy that just came
        back.  Returns ``False`` if ``deadline`` ran out first.
        """
        with self._cond:
            while (state := self._names.get(name)) is not None and state.departing:
                remaining = None if deadline is None else deadline.remaining_s()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True

    def abort_departure(self, name: str) -> None:
        """The streamed transfer failed: the object stays; grants resume."""
        with self._cond:
            state = self._names.get(name)
            if state is None:
                return
            state.departing = False
            self._maybe_forget_locked(name, state)
            self._cond.notify_all()

    def _maybe_forget_locked(self, name: str, state: _NameLock) -> None:
        """Drop empty bookkeeping so the table doesn't grow without bound."""
        if (
            not state.stay_holders
            and state.move_holder is None
            and not state.queue
            and state.moved_to is None
            and not state.departing
        ):
            self._names.pop(name, None)

    # -- queries -------------------------------------------------------------------

    def holds_move_lock(self, name: str, token: str) -> bool:
        """True if ``token`` is the current move-lock holder for ``name``."""
        with self._mutex:
            state = self._names.get(name)
            return (
                state is not None
                and state.move_holder is not None
                and state.move_holder.token == token
            )

    def has_activity(self, name: str) -> bool:
        """Holders or waiters exist (a move without a token must be refused)."""
        with self._mutex:
            state = self._names.get(name)
            if state is None:
                return False
            return bool(
                state.stay_holders or state.move_holder is not None or state.queue
            )

    def snapshot(self, name: str) -> dict:
        """Diagnostic view of one object's lock state."""
        with self._mutex:
            state = self._names.get(name)
            if state is None:
                return {"stays": 0, "move": False, "queued": 0,
                        "moved_to": None, "departing": False}
            return {
                "stays": len(state.stay_holders),
                "move": state.move_holder is not None,
                "queued": len(state.queue),
                "moved_to": state.moved_to,
                "departing": state.departing,
            }
