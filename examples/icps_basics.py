#!/usr/bin/env python3
"""Using the ICPS core directly (without the Tor layer or the simulator).

Interactive Consistency under Partial Synchrony is a general functionality:
``n`` nodes each contribute a document and all correct nodes output the same
document vector, even if up to ``f < n/3`` nodes misbehave and the network
temporarily loses synchrony.  This example runs four ICPS nodes on the local
driver, once in the good case and once with an equivocating Byzantine node,
and checks the four properties of Definition 5.1; it exits non-zero if any
check fails.

Run with:  python examples/icps_basics.py
"""

import sys

from repro.attack.adversary import EquivocatingICPSAdversary
from repro.consensus import LocalDriver
from repro.core import Document, ICPSConfig, ICPSNode
from repro.core.properties import check_all_properties
from repro.crypto.keys import KeyPair, KeyRing

NAMES = ("alice", "bob", "carol", "dave")
LABELS = {
    "termination": "termination",
    "agreement": "agreement",
    "value_validity": "value validity",
    "common_set_validity": "common-set validity",
}


def build_nodes(byzantine: bool):
    pairs = {name: KeyPair.generate(name, b"example-seed") for name in NAMES}
    ring = KeyRing(pairs.values())
    configs = {
        name: ICPSConfig(node_id=name, nodes=NAMES, delta=5.0, engine="hotstuff")
        for name in NAMES
    }
    nodes = {}
    for name in NAMES:
        if byzantine and name == "dave":
            nodes[name] = EquivocatingICPSAdversary(
                name,
                peers=NAMES,
                keypair=pairs[name],
                document_a=Document.from_text("dave's first story"),
                document_b=Document.from_text("dave's second story"),
            )
        else:
            nodes[name] = ICPSNode(configs[name], ring, pairs[name])
    docs = {name: Document.from_text("relay list of %s" % name, label=name) for name in NAMES}
    return nodes, docs


def run_and_report(title: str, byzantine: bool) -> bool:
    """Run one cluster, print its checks, and return whether all of them hold."""
    nodes, docs = build_nodes(byzantine)
    driver = LocalDriver(nodes, loopback_broadcast=False)
    driver.start(docs)
    driver.run(until=1000)

    correct = [name for name in NAMES if not (byzantine and name == "dave")]
    outputs = {name: nodes[name].output for name in correct}
    checks = check_all_properties(outputs, docs, correct, n=4, f=1, gst_zero=not byzantine)
    print(title)
    for name, holds in checks.items():
        print("  %-20s:" % LABELS[name], holds)
    sample = outputs[correct[0]]
    entries = {
        name: (document.data.decode() if document else "<bottom>")
        for name, document in sorted(sample.documents.items())
    }
    print("  %s's output vector  : %s" % (correct[0], entries))
    print()
    return all(checks.values())


def main() -> int:
    good = run_and_report("Good case (no faults, synchronous network):", byzantine=False)
    byzantine = run_and_report("With an equivocating Byzantine node (dave):", byzantine=True)
    return 0 if good and byzantine else 1


if __name__ == "__main__":
    sys.exit(main())
