"""The vectorized engine runtime: streams, triggers, ``VecSystem``.

:func:`build_vec_system` is the back half of
``SystemBuilder.engine("vectorized").build()``: it resolves the
protocol's vectorized round model from
:data:`~repro.engine_vec.protocols.VEC_PROTOCOLS` and wraps it in a
:class:`VecSystem`, which quacks enough like
:class:`~repro.core.protocol.System` for the sweep worker — ``run()``
returns the same :class:`~repro.core.protocol.ProtocolRunResult`
shape, and ``.protocol.analysis_system()`` returns ``None`` (the
vectorized engine keeps no live per-node substrate for in-worker
collectors to walk).

Randomness follows the event kernel's discipline: every stream a model
consumes is a :class:`numpy.random.Generator` seeded with
``derive_seed(ctx.seed, "vec/<protocol>/<stream>")`` — the same
BLAKE2b derivation :class:`~repro.sim.rng.RngRegistry` applies, under
a ``vec/`` prefix so the two engines never alias each other's streams.
Draws are consumed in a fixed per-round order, so results are
bit-reproducible across processes and pool sizes.
"""

from __future__ import annotations

import numpy as np

from repro.core.protocol import BuildContext, ProtocolRunResult
from repro.sim.rng import derive_seed


class VecStreams:
    """Named, lazily created numpy generators for one run.

    ``stream(name)`` seeds a fresh PCG64 with
    ``derive_seed(seed, f"vec/{scope}/{name}")``; repeated calls return
    the same generator, so a model's draw order fully determines the
    consumed sequence.
    """

    def __init__(self, seed: int, scope: str) -> None:
        self.seed = seed
        self.scope = scope
        self._generators: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        generator = self._generators.get(name)
        if generator is None:
            derived = derive_seed(self.seed, f"vec/{self.scope}/{name}")
            generator = np.random.Generator(np.random.PCG64(derived))
            self._generators[name] = generator
        return generator


def fast_trigger_mask(up: np.ndarray, down: np.ndarray, kappa: float,
                      slack: float) -> np.ndarray:
    """Vectorized FT trigger (closed form of Definition 4.3).

    Mirrors :func:`repro.core.triggers._exists_fast_level` elementwise:
    an integer level ``s >= 1`` with ``up >= 2 s kappa - slack`` and
    ``down <= 2 s kappa + slack``.  Degree-0 nodes carry
    ``up = down = -inf`` and come out ``False``, matching the scalar
    evaluator's no-neighbors answer.
    """
    s_hi = np.floor((up + slack) / (2.0 * kappa))
    s_lo = np.maximum(1.0, np.ceil((down - slack) / (2.0 * kappa)))
    return s_hi >= s_lo


def slow_trigger_mask(up: np.ndarray, down: np.ndarray, kappa: float,
                      slack: float) -> np.ndarray:
    """Vectorized ST trigger (odd-rung closed form, Definition 4.4)."""
    m_hi = np.floor((down + slack) / kappa)
    m_lo = np.maximum(1.0, np.ceil((up - slack) / kappa))
    odd_in_range = (np.mod(m_lo, 2.0) == 1.0) | (m_lo + 1.0 <= m_hi)
    return (m_hi >= m_lo) & odd_in_range


class _VecProtocolHandle:
    """Stand-in for ``System.protocol`` on the vectorized engine."""

    def __init__(self, name: str) -> None:
        self.name = name

    def analysis_system(self):
        """No live substrate: in-worker collectors are unsupported."""
        return None


class VecSystem:
    """A built vectorized run, duck-compatible with
    :class:`~repro.core.protocol.System` where the sweep worker needs
    it (``run()`` and ``protocol.analysis_system()``)."""

    def __init__(self, model) -> None:
        self.model = model
        self.ctx = model.ctx
        self.protocol = _VecProtocolHandle(model.name)

    def run(self) -> ProtocolRunResult:
        return self.model.run()


def build_vec_system(name: str, ctx: BuildContext) -> VecSystem:
    """Resolve the protocol's vectorized model and wrap it (the
    builder's :func:`~repro.core.protocol.check_composition` has
    checked that the model exists and reads every key given)."""
    from repro.engine_vec.protocols import VEC_PROTOCOLS

    return VecSystem(VEC_PROTOCOLS[name](ctx))


__all__ = [
    "VecStreams",
    "VecSystem",
    "build_vec_system",
    "fast_trigger_mask",
    "slow_trigger_mask",
]
