"""powdb: a proof-of-work replicated key-value database node.

A chain of hashed blocks over an embedded store, signed peer-to-peer
replication, a deterministic contract language, and a virtual-clock
simulation harness for partition and adversary experiments.
"""

__version__ = "0.1.0"
