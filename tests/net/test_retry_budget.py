"""Deadline-aware retry budgets: retries scale to the remaining budget."""

import pytest

from repro.errors import CallTimeoutError, MessageLostError
from repro.net.conditions import LossModel
from repro.net.deadline import Deadline
from repro.net.message import MessageKind
from repro.net.simnet import SimNetwork


class CountingBlackhole(LossModel):
    """Drops every remote transmission, counting the attempts."""

    def __init__(self):
        self.attempts = 0

    def should_drop(self, message, attempt):
        if message.is_local:
            return False
        self.attempts += 1
        return True


@pytest.fixture
def blackhole():
    loss = CountingBlackhole()
    net = SimNetwork(loss=loss)
    net.register("a", lambda m: "pong")
    net.register("b", lambda m: "pong")
    return net, loss


class TestDeadlineAwareRetries:
    def test_no_deadline_spends_the_full_budget(self, blackhole):
        net, loss = blackhole
        with pytest.raises(MessageLostError):
            net.call("a", "b", MessageKind.PING)
        assert loss.attempts == net.retry_budget + 1

    def test_generous_deadline_spends_the_full_budget(self, blackhole):
        net, loss = blackhole
        with pytest.raises(MessageLostError):
            net.call("a", "b", MessageKind.PING,
                     deadline=Deadline.after_s(30))
        assert loss.attempts == net.retry_budget + 1

    def test_almost_expired_call_retries_at_most_once(self, blackhole):
        """The regression bar: a call with under one attempt-cost of budget
        left must not queue ``retry_budget`` retransmissions — it stops
        after at most one retry and surfaces the timeout."""
        net, loss = blackhole
        with pytest.raises(CallTimeoutError):
            net.call("a", "b", MessageKind.PING,
                     deadline=Deadline.after_ms(0.5))
        assert loss.attempts <= 2

    def test_expired_deadline_never_touches_the_wire(self, blackhole):
        net, loss = blackhole
        with pytest.raises(CallTimeoutError):
            net.call("a", "b", MessageKind.PING,
                     deadline=Deadline.after_ms(0))
        assert loss.attempts == 0

