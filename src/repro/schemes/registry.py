"""Registry mapping scheme names to classes (for benches and the simulator).

McCLS lives in :mod:`repro.core`, which itself imports the scheme base
classes from this package, so the registry resolves classes lazily to keep
the import graph acyclic.

Every registered class conforms to
:class:`repro.schemes.base.SchemeProtocol`; :func:`create_scheme` is the
one sanctioned construction path and enforces that at runtime, so callers
(the simulator's crypto material builder, benches, examples) never need to
special-case a scheme type again.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.pairing.groups import PairingContext
from repro.schemes.base import CertificatelessScheme, SchemeProtocol

#: the four certificateless schemes of paper Table 1, in table order,
#: plus the hardened reproduction variant
_SCHEME_PATHS: Dict[str, str] = {
    "ap": "repro.schemes.ap:APScheme",
    "zwxf": "repro.schemes.zwxf:ZWXFScheme",
    "yhg": "repro.schemes.yhg:YHGScheme",
    "mccls": "repro.core.mccls:McCLS",
    "mccls-plus": "repro.core.hardened:McCLSPlus",
}

#: non-certificateless baselines that share the unified SchemeProtocol
#: surface (IBS = the scheme McCLS descends from; BLS and ECDSA = the
#: pairing and PKI calibration points)
_BASELINE_PATHS: Dict[str, str] = {
    "ibs": "repro.schemes.ibs:ChaCheonIBS",
    "bls": "repro.schemes.bls:BLSScheme",
    "ecdsa": "repro.pki.ecdsa:ECDSA",
    # pairing-free certificateless scheme (plain ECC on G1): the session
    # fast path's signature layer and the lightweight Table-1 extension
    "ecls": "repro.schemes.ecls:ECLSScheme",
}

#: the paper's Table 1 rows only (benchmarks iterate these)
TABLE1_SCHEMES = ("ap", "zwxf", "yhg", "mccls")


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = __import__(module_name, fromlist=[class_name])
    return getattr(module, class_name)


def scheme_class(name: str) -> Type[CertificatelessScheme]:
    """Resolve a certificateless scheme name to its class (lazy import)."""
    try:
        path = _SCHEME_PATHS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; choose from {sorted(_SCHEME_PATHS)}"
        ) from None
    return _resolve(path)


def scheme_names() -> List[str]:
    """The certificateless scheme names, Table 1 order first."""
    return list(_SCHEME_PATHS)


def all_scheme_names() -> List[str]:
    """Every registered name: certificateless schemes, then baselines."""
    return list(_SCHEME_PATHS) + list(_BASELINE_PATHS)


def all_scheme_classes() -> Dict[str, Type[CertificatelessScheme]]:
    """Name -> class for every certificateless scheme."""
    return {name: scheme_class(name) for name in _SCHEME_PATHS}


def create_scheme(
    name: str, ctx: PairingContext, *, backend=None, **kwargs
) -> SchemeProtocol:
    """Construct a scheme by name on ``ctx``, validated against the protocol.

    Accepts both the certificateless schemes and the baselines; extra
    keyword arguments go to the scheme constructor (e.g. ``master_secret``
    or McCLS's ``precompute_s``).  ``backend`` selects a field backend for
    the scheme's context: when it differs from what ``ctx`` already runs
    on, a rebound context (same curve family/RNG/cache bound, rebuilt on
    the requested backend) is constructed for the scheme — the caller's
    ``ctx`` is never mutated.  Raises ``KeyError`` for unknown names and
    ``TypeError`` if the constructed object does not satisfy
    :class:`~repro.schemes.base.SchemeProtocol` — the registry hands out
    only conforming objects.
    """
    path = _SCHEME_PATHS.get(name) or _BASELINE_PATHS.get(name)
    if path is None:
        raise KeyError(
            f"unknown scheme {name!r}; choose from {sorted(all_scheme_names())}"
        )
    if backend is not None:
        from repro.pairing import backends as _backends

        resolved = _backends.resolve_backend(backend)
        if resolved is not getattr(ctx, "backend", None):
            ctx = PairingContext(
                ctx.curve,
                ctx.rng,
                cache_size=ctx.cache_size,
                backend=resolved,
                insecure_deterministic_batch=getattr(
                    ctx, "insecure_deterministic_batch", False
                ),
            )
    scheme = _resolve(path)(ctx, **kwargs)
    if not isinstance(scheme, SchemeProtocol):
        raise TypeError(
            f"scheme {name!r} ({type(scheme).__name__}) does not conform to "
            "SchemeProtocol"
        )
    return scheme
