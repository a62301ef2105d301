"""The two field backends and their selection by name.

A backend decides one thing: whether the compiled kernel
(:mod:`repro.pairing._kernel`) runs a curve's Miller loops, final
exponentiations and multi-scalar multiplications.  The scalar layer is
plain Python ints under either backend, and values and obs counters are
bit-identical to the ``reference`` tower; backends trade wall time,
never semantics.

Selection precedence (highest first):

1. explicit object/name passed to ``PairingContext(backend=...)``,
   ``create_scheme(..., backend=...)``, CLI ``--backend``;
2. the ``REPRO_FIELD_BACKEND`` environment variable;
3. the ``reference`` default.

Names:

``reference``
    The pure-Python tower; no kernel.
``native``
    The cffi-compiled kernel when a C toolchain builds it; without one
    it is still selectable and runs the pure-Python tower, and its
    :meth:`~repro.pairing.fields.FieldBackend.describe` line says so.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple, Union

from repro.pairing.fields import FieldBackend

ENV_VAR = "REPRO_FIELD_BACKEND"
DEFAULT_BACKEND = "reference"


class BackendError(ValueError):
    """Unknown field backend name."""


class ReferenceBackend(FieldBackend):
    """The pure-Python tower; the value oracle the kernel matches."""

    name = "reference"


class NativeBackend(FieldBackend):
    """The compiled kernel wherever it builds, the pure tower elsewhere."""

    name = "native"

    def __init__(self) -> None:
        self._kernels: Dict[tuple, object] = {}

    def availability(self) -> Tuple[bool, str]:
        """Always selectable; the reason string reports the engine found."""
        from repro.pairing import _kernel

        ok, reason = _kernel.kernel_availability()
        if ok:
            return True, "compiled pairing kernel"
        return True, f"pure-Python fallback (kernel: {reason})"

    def kernel(self, curve):
        """Memoised compiled kernel for ``curve`` (None when unbuildable)."""
        key = (curve.spec.p, curve.spec.xi_a, curve.ate_loop_count, curve.t)
        if key not in self._kernels:
            from repro.pairing._kernel import PairingKernel

            self._kernels[key] = PairingKernel.for_curve(curve)
        return self._kernels[key]


_INSTANCES: Dict[str, FieldBackend] = {
    backend.name: backend for backend in (ReferenceBackend(), NativeBackend())
}


def backend_names() -> Tuple[str, ...]:
    """Both backend names, default first."""
    return tuple(_INSTANCES)


def get_backend(name: str) -> FieldBackend:
    """The backend instance named ``name``; :class:`BackendError` if none."""
    try:
        return _INSTANCES[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise BackendError(
            f"unknown field backend {name!r} (known: {known})"
        ) from None


def resolve_backend(
    backend: Union[FieldBackend, str, None] = None,
) -> FieldBackend:
    """Apply selection precedence and return the backend instance.

    ``backend`` may be an instance (returned as-is), a name, or ``None``
    - in which case the ``REPRO_FIELD_BACKEND`` environment variable is
    consulted before falling back to ``reference``.
    """
    if isinstance(backend, FieldBackend):
        return backend
    if backend is None:
        backend = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    return get_backend(backend)
