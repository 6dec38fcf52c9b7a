"""String-keyed registry of every longitudinal protocol (mirror of
:mod:`repro.experiments.registry`).

``PROTOCOLS`` maps stable names to shared :class:`LongitudinalProtocol`
singletons; consumers resolve names through :func:`get_protocol`, filter by
capability through :func:`list_protocols`, and normalize heterogeneous
runner specifications (names, protocol instances, plain callables) through
:func:`resolve_runner` — the seam that lets ``run_trials`` / ``sweep`` /
``Scenario.run`` / the CLI accept any of the three without special-casing.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.protocols.adapters import (
    BunComposedProtocol,
    CategoricalItemProtocol,
    CentralTreeProtocol,
    ErlingssonProtocol,
    FutureRandObjectProtocol,
    FutureRandProtocol,
    HashedFrequencyItemProtocol,
    HeavyHittersProtocol,
    MemoizationProtocol,
    NaiveSplitProtocol,
    NaiveUnsplitProtocol,
    OfflineTreeProtocol,
    SketchMedianProtocol,
)
from repro.protocols.base import LongitudinalProtocol

__all__ = [
    "PROTOCOLS",
    "get_protocol",
    "list_protocols",
    "resolve_runner",
    "ProtocolLike",
]

#: Anything ``resolve_runner`` can turn into a named runner: a registry name,
#: a protocol instance, or a bare ``(states, params, rng) -> ProtocolResult``
#: callable (the historical signature, kept for back-compat).
ProtocolLike = Union[str, LongitudinalProtocol, Callable]


def _build_registry() -> dict[str, LongitudinalProtocol]:
    protocols = (
        FutureRandProtocol(),
        FutureRandObjectProtocol(),
        BunComposedProtocol(),
        ErlingssonProtocol(),
        NaiveSplitProtocol(),
        NaiveUnsplitProtocol(),
        MemoizationProtocol(),
        OfflineTreeProtocol(),
        CentralTreeProtocol(),
        CategoricalItemProtocol(),
        HashedFrequencyItemProtocol(),
        SketchMedianProtocol(),
        HeavyHittersProtocol(),
    )
    registry: dict[str, LongitudinalProtocol] = {}
    for protocol in protocols:
        if protocol.name in registry:
            raise ValueError(f"duplicate protocol name {protocol.name!r}")
        registry[protocol.name] = protocol
    return registry


PROTOCOLS: dict[str, LongitudinalProtocol] = _build_registry()


def get_protocol(name: str) -> LongitudinalProtocol:
    """Return the registered protocol for ``name``, or raise ``KeyError``."""
    protocol = PROTOCOLS.get(name)
    if protocol is None:
        known = ", ".join(sorted(PROTOCOLS))
        raise KeyError(f"unknown protocol {name!r}; known: {known}")
    return protocol


def list_protocols(
    *,
    online: Optional[bool] = None,
    privacy_model: Optional[str] = None,
    sequence_ldp: Optional[bool] = None,
) -> list[str]:
    """Return registry names matching every given capability filter.

    >>> "future_rand" in list_protocols(online=True, privacy_model="local")
    True
    >>> list_protocols(privacy_model="central")
    ['central_tree']
    """
    names = []
    for name, protocol in PROTOCOLS.items():
        if online is not None and protocol.online != online:
            continue
        if privacy_model is not None and protocol.privacy_model != privacy_model:
            continue
        if sequence_ldp is not None and protocol.sequence_ldp != sequence_ldp:
            continue
        names.append(name)
    return names


def resolve_runner(spec: ProtocolLike) -> tuple[str, Callable]:
    """Normalize ``spec`` into a ``(name, runner)`` pair.

    * a string resolves through the registry (``KeyError`` if unknown);
    * a :class:`LongitudinalProtocol` instance is used directly under its
      own name;
    * any other callable (the historical plain-runner path) is passed
      through under its ``__name__``.
    """
    if isinstance(spec, str):
        return spec, get_protocol(spec)
    if isinstance(spec, LongitudinalProtocol):
        return spec.name, spec
    if callable(spec):
        return getattr(spec, "__name__", repr(spec)), spec
    raise TypeError(
        f"cannot resolve {spec!r} into a protocol runner; expected a registry "
        "name, a LongitudinalProtocol, or a callable"
    )
