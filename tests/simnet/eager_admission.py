"""The per-call admission reference: a lazy scheduler that rates each burst at once.

:class:`~repro.simnet.shared_sched.LazySharedLinkScheduler` indexes a
``start_flows`` burst and leaves its rating to the instant's admission
frontier — one pass for every same-instant call with no scheduler transition
between them.  ``EagerAdmission`` settles inside the call instead, a rate pass
per ``start_flows``, which is what the scheduler did before the frontier and
the trajectory the frontier is held equal to, at summary level, by
``test_admission_frontier.py`` and, directed, by ``test_shared_sched.py``.
(The frontier event each call still schedules finds nothing and fires as a
no-op.)  Tests select it with :func:`use_eager_admission`; production code
has no switch for it.
"""

from unittest import mock

from repro.simnet import shared_sched
from repro.simnet.shared_sched import LazySharedLinkScheduler


class EagerAdmission(LazySharedLinkScheduler):
    def start_flows(self, flows, now):
        super().start_flows(flows, now)
        self._settle_admissions()


def use_eager_admission():
    """Build :class:`EagerAdmission` wherever the lazy engine is selected
    inside the block (the factory imports the class by name at call time)."""
    return mock.patch.object(shared_sched, "LazySharedLinkScheduler", EagerAdmission)
