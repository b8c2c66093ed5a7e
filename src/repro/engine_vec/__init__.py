"""The vectorized synchronous-round execution engine.

A second backend behind the :class:`~repro.core.protocol.SyncProtocol`
surface (ROADMAP item 2): node state lives in numpy struct-of-arrays,
topology in CSR adjacency, and each protocol round is one vectorized
kernel step over *all* nodes at once — neighbor min/max via CSR
segment reductions, per-round delay/drift draws as vectors from
BLAKE2b-derived streams (the same ``derive_seed`` discipline the event
kernel uses).  This trades the event kernel's per-message fidelity for
throughput: million-node grids at thousands of rounds per second.

Select it with ``SystemBuilder.engine("vectorized")`` /
``Scenario.engine("vectorized")`` / ``ScenarioSpec.engine``; protocols
advertise support via the ``supports_vectorized`` capability flag.
The equivalence contract against the event kernel (bit-equal where the
math permits, documented tolerance otherwise) is implemented and
enforced by :mod:`repro.engine_vec.equivalence`.

numpy is the only third-party dependency of the simulation code, and
not only of this engine: every
:class:`~repro.topology.cluster_graph.ClusterGraph` keeps its edges as
one numpy array, which this engine's CSR view reads directly.
"""

from repro.engine_vec.engine import VecSystem, build_vec_system

__all__ = ["VecSystem", "build_vec_system"]
