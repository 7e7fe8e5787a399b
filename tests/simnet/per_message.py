"""The per-message dispatch reference: a network that batches nothing.

:class:`~repro.simnet.network.SimNetwork` hands each ``send_many`` burst to
the flow scheduler whole and coalesces same-instant arrivals at a node into
one heap event.  ``PerMessageNetwork`` does neither — a burst is a loop of
one-destination admissions and every delivery is its own event — which is the
trajectory the batched paths are held equal to, at summary level, by
``test_batch_dispatch.py`` and, by event counts, by ``test_flow_waves.py``.
Tests select it with :func:`use_per_message_network`; production code has no
switch for it.
"""

from unittest import mock

from repro.protocols import runner
from repro.simnet.network import SimNetwork


class PerMessageNetwork(SimNetwork):
    def send_many(self, sender, destinations, message, *args, **kwargs):
        admit = super().send_many
        return [
            admit(sender, (destination,), message, *args, **kwargs)[0]
            for destination in destinations
        ]

    def _schedule_delivery(
        self, sender, destination, message, on_delivered, weight, sent_at, at=None
    ):
        now = self.simulator.now if at is None else at
        latency = self.latency(sender, destination)
        if self.fault_injector is not None:
            latency += self.fault_injector.delivery_jitter(sender, destination, now)
        item = (sender, destination, message, on_delivered, weight, sent_at)
        # A batch of its own per delivery: one event each, still withdrawable.
        return self.simulator.schedule_batch(now + latency, object(), self._deliver, item), item


def use_per_message_network():
    """Run ``execute_spec`` on a :class:`PerMessageNetwork` inside the block."""
    return mock.patch.object(runner, "SimNetwork", PerMessageNetwork)
