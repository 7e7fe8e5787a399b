"""Fault enforcement on the simulated network.

A :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into behaviour at the one seam every
protocol message and timer already crosses: :class:`~repro.simnet.network.SimNetwork`.
The network consults the injector at three deterministic points —

* **send initiation** (:meth:`FaultInjector.filter_send`): crash and
  partition suppression, withholding, seeded probabilistic loss, and
  equivocation rewriting;
* **delivery instant** (:meth:`FaultInjector.filter_delivery`): partitions
  and crashes re-checked, and probabilistic loss re-checked *conditionally*
  — a loss window that opened mid-flight exposes the message to the
  residual probability the send-instant draw did not cover — so a transfer
  in flight when a window opens is cut;
* **timer firing** (:meth:`FaultInjector.timer_suppressed`): a crashed
  authority's timers do not run (the process is down), which is what keeps a
  crashed lock-step authority from "acting" mid-outage.

All randomness (loss draws, jitter draws) derives from the run seed and the
plan's content hash, and is only consumed for messages that a declared
fault actually covers — so a run with an empty plan is bit-identical to a
run with no injector at all, and equal specs replay identically regardless
of worker count.  Each draw is *derived*, not streamed: it is a pure
function of the seed material plus a per-``(kind, sender, destination)``
sequence number, never of the global order in which the simulation happens
to reach the draw sites.  That makes fault randomness stable across
transport engines (the lazy and vector shared schedulers and the test-side
reference model order same-instant completions differently, at
float-rounding level), which the cross-engine conformance properties rely
on; a shared stream would smear one reordered delivery into every subsequent
draw of the run.

:meth:`FaultInjector.install` wires the injector into a network and uses
:meth:`~repro.simnet.engine.Simulator.schedule_window` to put fault-window
transitions on the event loop as Tor-style trace lines, so Figure-1 style
log extractions show the injected adversity.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

from repro.faults.byzantine import EquivocationRewriter
from repro.faults.plan import AuthorityFault, FaultPlan, LinkFault
from repro.simnet.message import Message
from repro.utils.validation import ensure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.network import SimNetwork

#: Drop causes tracked by :attr:`FaultInjector.drops_by_cause`.
DROP_CAUSES = ("crash", "partition", "loss", "withhold")


class FaultInjector:
    """Enforces a :class:`FaultPlan` over a :class:`SimNetwork`.

    Parameters
    ----------
    plan:
        The declarative plan to enforce.
    seed:
        The run seed; combined with the plan hash to seed the fault RNG.
    authority_names:
        ``authority_id -> simulator node name`` for every authority the plan
        references (unreferenced authorities may be omitted).
    rewriters:
        ``node name -> EquivocationRewriter`` for the plan's equivocators
        (see :func:`repro.faults.byzantine.build_rewriters`).
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int,
        authority_names: Mapping[int, str],
        rewriters: Optional[Mapping[str, EquivocationRewriter]] = None,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self._seed_material = "faults:%d:%s" % (seed, plan.plan_hash())
        self._draw_streams: Dict[Any, random.Random] = {}
        self._link_faults: Dict[str, LinkFault] = {}
        self._authority_faults: Dict[str, AuthorityFault] = {}
        for fault in plan.link_faults:
            ensure(
                fault.authority_id in authority_names,
                "no node name for faulted authority %d" % fault.authority_id,
            )
            self._link_faults[authority_names[fault.authority_id]] = fault
        for fault in plan.authority_faults:
            ensure(
                fault.authority_id in authority_names,
                "no node name for faulted authority %d" % fault.authority_id,
            )
            self._authority_faults[authority_names[fault.authority_id]] = fault
        self._rewriters: Dict[str, EquivocationRewriter] = dict(rewriters or {})
        self.messages_dropped = 0
        self.drops_by_cause: Dict[str, int] = {cause: 0 for cause in DROP_CAUSES}

    # -- state queries -----------------------------------------------------
    def is_down(self, node_name: str, now: float) -> bool:
        """True when ``node_name`` is inside one of its crash windows."""
        fault = self._authority_faults.get(node_name)
        return fault is not None and fault.down_at(now)

    def is_partitioned(self, node_name: str, now: float) -> bool:
        """True when ``node_name`` is inside one of its partition windows."""
        fault = self._link_faults.get(node_name)
        return fault is not None and fault.partitioned_at(now)

    def withholds(self, node_name: str) -> bool:
        """True when ``node_name`` is a vote-withholding Byzantine authority."""
        fault = self._authority_faults.get(node_name)
        return fault is not None and fault.byzantine == "withhold"

    # -- network hooks -----------------------------------------------------
    def filter_send(
        self, sender: str, destination: str, message: Message, now: float
    ) -> Optional[Message]:
        """The message the transport should carry, or None to drop it.

        Checked in severity order: crash, partition, withholding, then
        probabilistic loss; survivors of an equivocator are rewritten for
        their destination.
        """
        if self.is_down(sender, now) or self.is_down(destination, now):
            return self._drop("crash")
        if self.is_partitioned(sender, now) or self.is_partitioned(destination, now):
            return self._drop("partition")
        if self.withholds(sender):
            return self._drop("withhold")
        loss = self._loss_probability(sender, destination, now)
        if loss > 0.0 and self._derived_draw("loss", sender, destination) < loss:
            return self._drop("loss")
        rewriter = self._rewriters.get(sender)
        if rewriter is not None:
            message = rewriter.rewrite(destination, message)
        return message

    def filter_delivery(
        self,
        sender: str,
        destination: str,
        message: Message,
        now: float,
        sent_at: Optional[float] = None,
    ) -> bool:
        """False when the delivery must be cut at the delivery instant.

        ``sent_at`` is the instant the message entered the transport.  When
        given, probabilistic loss is re-checked for windows that opened
        mid-flight: the send-instant draw covered a loss exposure of
        ``p_sent``, so if the exposure at delivery is ``p_now > p_sent`` the
        message faces one extra draw against the conditional residual
        ``(p_now - p_sent) / (1 - p_sent)`` — which makes the *total* loss
        probability exactly ``p_now``, and consumes no draw at all when the
        exposure did not change (constant whole-run loss keeps its pre-fix
        trajectory bit-for-bit).  Without ``sent_at`` the check is skipped,
        matching the historical send-draw-only semantics.
        """
        if self.is_down(destination, now):
            self._drop("crash")
            return False
        if self.is_partitioned(sender, now) or self.is_partitioned(destination, now):
            self._drop("partition")
            return False
        if sent_at is not None:
            p_now = self._loss_probability(sender, destination, now)
            if p_now > 0.0:
                p_sent = self._loss_probability(sender, destination, sent_at)
                if p_now > p_sent:
                    residual = (p_now - p_sent) / (1.0 - p_sent)
                    if self._derived_draw("loss-delivery", sender, destination) < residual:
                        self._drop("loss")
                        return False
        return True

    def delivery_jitter(self, sender: str, destination: str, now: float) -> float:
        """Extra propagation latency for one delivery (0 on unjittered links).

        Jitter is a *windowed* degradation like probabilistic loss: a
        :class:`LinkFault` with ``loss_windows`` jitters deliveries only
        inside them (:meth:`LinkFault.jitter_at`); one without applies for
        the whole run.  Draws are only consumed while some covering fault is
        active, so runs outside every window are bit-identical to unjittered
        ones.
        """
        bound = 0.0
        for name in (sender, destination):
            fault = self._link_faults.get(name)
            if fault is not None:
                bound += fault.jitter_at(now)
        if bound <= 0.0:
            return 0.0
        return self._derived_draw("jitter", sender, destination) * bound

    def tcp_loss_event(
        self, sender: str, destination: str, now: float, segments: int = 1
    ) -> bool:
        """Whether a tcp ack round between the pair observes segment loss.

        The congestion-control seam for the ``tcp`` link model: crashes and
        partitions are certain loss (every in-flight segment dies), and a
        drop-typed fault with loss probability ``p`` loses at least one of
        ``segments`` independent segments with probability
        ``1 - (1 - p)^segments``.  Draws come from a dedicated
        ``"tcp-loss"`` per-pair stream (so transport ticks never perturb the
        message-level loss draws), are consumed only while a loss fault
        covers the pair, and do **not** count into ``drops_by_cause`` — a
        congestion signal is not a dropped message.
        """
        if self.is_down(sender, now) or self.is_down(destination, now):
            return True
        if self.is_partitioned(sender, now) or self.is_partitioned(destination, now):
            return True
        probability = self._loss_probability(sender, destination, now)
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        window_loss = 1.0 - (1.0 - probability) ** max(1, segments)
        return self._derived_draw("tcp-loss", sender, destination) < window_loss

    def timer_suppressed(self, node_name: str, now: float) -> bool:
        """True when a timer of ``node_name`` fires while it is crashed."""
        return self.is_down(node_name, now)

    def boot_time(self, node_name: str, at: float) -> float:
        """When ``node_name`` may boot, given a requested start of ``at``.

        A node crashed at its boot instant starts late — at the end of the
        covering crash window (skipping through back-to-back windows) —
        instead of never; timers other than the boot are lost, not deferred.
        """
        fault = self._authority_faults.get(node_name)
        if fault is None:
            return at
        boot = at
        while fault.down_at(boot):
            boot = fault.down_until(boot)
        return boot

    # -- wiring ------------------------------------------------------------
    def install(self, network: "SimNetwork") -> None:
        """Attach to ``network`` and put fault-window transitions on its loop."""
        network.set_fault_injector(self)
        simulator = network.simulator
        trace = network.trace

        def transition(name: str, text: str) -> None:
            trace.record(simulator.now, name, "warn", text)

        for name, fault in sorted(self._authority_faults.items()):
            for start, end in fault.crash_windows:
                simulator.schedule_window(
                    start,
                    end,
                    lambda name=name: transition(name, "fault-injector: authority crashed."),
                    lambda name=name: transition(name, "fault-injector: authority restarted."),
                )
        for name, fault in sorted(self._link_faults.items()):
            for start, end in fault.partition_windows:
                simulator.schedule_window(
                    start,
                    end,
                    lambda name=name: transition(name, "fault-injector: partitioned from all peers."),
                    lambda name=name: transition(name, "fault-injector: partition healed."),
                )

    # -- accounting --------------------------------------------------------
    def fault_summary(self, end_time: float) -> Dict[str, Any]:
        """Fault accounting for :meth:`ProtocolRunResult.summary`."""
        return {
            "messages_dropped": self.messages_dropped,
            "drops_by_cause": dict(self.drops_by_cause),
            "partition_seconds": self.plan.partition_seconds(end_time),
            "authority_down_seconds": self.plan.down_seconds(end_time),
            "authorities_crashed": list(self.plan.crashing_authority_ids()),
            "authorities_equivocating": list(self.plan.byzantine_authority_ids("equivocate")),
            "authorities_withholding": list(self.plan.byzantine_authority_ids("withhold")),
        }

    # -- internals ---------------------------------------------------------
    def _derived_draw(self, kind: str, sender: str, destination: str) -> float:
        """The next uniform [0, 1) draw for one fault kind on one link pair.

        Deterministic given the spec: the value depends only on the seed
        material and how many ``kind`` draws this ordered pair has consumed
        (each key owns its own seeded stream, built once and drawn
        sequentially — the per-pair position *is* the derivation index), so
        unrelated traffic elsewhere in the run can never shift it.
        """
        key = (kind, sender, destination)
        stream = self._draw_streams.get(key)
        if stream is None:
            stream = random.Random(
                "%s|%s|%s|%s" % (self._seed_material, kind, sender, destination)
            )
            self._draw_streams[key] = stream
        return stream.random()

    def _drop(self, cause: str) -> None:
        self.messages_dropped += 1
        self.drops_by_cause[cause] += 1
        return None

    def _loss_probability(self, sender: str, destination: str, now: float) -> float:
        probability = 0.0
        for name in (sender, destination):
            fault = self._link_faults.get(name)
            if fault is None:
                continue
            link_loss = fault.loss_probability_at(now)
            if link_loss > 0.0:
                probability = 1.0 - (1.0 - probability) * (1.0 - link_loss)
        return probability
