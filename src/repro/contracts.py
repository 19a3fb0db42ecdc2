"""Runtime shape/dtype/finiteness contracts for the hot numerical APIs.

The static pass (``tools/qmclint``) enforces *how* the numerics are
written; this module checks *what actually flows through them*. A
decorated function validates its ndarray arguments — symbolic shapes
shared across arguments, exact dtype, finiteness — whenever the
``REPRO_CONTRACTS`` environment variable is truthy::

    @shape_contract("(n,n)", dtype=np.float64, finite=True)
    def wrap_forward(factory, field, g: np.ndarray, l: int, sigma: int): ...

Positional specs bind, in order, to the parameters annotated
``np.ndarray``; keyword specs (``where={"g": "(n,n)"}``) name parameters
explicitly. Dimension tokens are either integers (exact) or symbols
(consistent across every spec of one call: two ``n`` dims must agree).
Non-ndarray values (lists a function coerces itself) are skipped.

Zero-cost guarantee: when ``REPRO_CONTRACTS`` is unset at import time the
decorator returns the function object *unchanged* — not a pass-through
wrapper — so production call overhead is exactly zero. The test suite
turns contracts on globally via ``tests/conftest.py``.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "ENV_VAR",
    "ContractViolation",
    "contracts_enabled",
    "shape_contract",
]

ENV_VAR = "REPRO_CONTRACTS"

_FALSY = ("", "0", "false", "off", "no")

def _declared_compute_dtype(arguments: Dict[str, object]):
    """The compute dtype declared by a policy-carrying argument.

    Policy-aware contracts (``dtype="compute"``) assert the dtype the
    active :class:`~repro.precision.PrecisionPolicy` *declares*, not a
    hard-coded float64. The policy rides on the backend argument
    (``backend.policy``); duck-typed so this module stays import-light.
    Returns None when no carrier is present in the call.
    """
    for value in arguments.values():
        policy = getattr(value, "policy", None)
        compute = getattr(policy, "compute_dtype", None)
        if compute is not None:
            return np.dtype(compute)
    return None


def _ambient_compute_dtype() -> np.dtype:
    """Compute dtype of the ambient (environment-default) policy.

    The contract floor when no call argument carries a policy: resolves
    exactly like an unconfigured simulation would ($REPRO_PRECISION,
    else full64), so with nothing configured anywhere the historical
    exact-float64 check is preserved bit for bit.
    """
    from .options import resolve_option
    from .precision import resolve_policy

    return resolve_policy(resolve_option("precision")).compute_dtype


def contracts_enabled() -> bool:
    """Whether contract validation is compiled into decorated functions."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY


class ContractViolation(ValueError):
    """A decorated function received an argument violating its contract."""


DimSpec = Tuple[Union[int, str], ...]


def _parse_spec(spec: str) -> DimSpec:
    """``"(n,n)"`` -> ("n", "n"); ``"(4,m)"`` -> (4, "m"); ``"(n,)"`` -> ("n",)."""
    text = spec.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"malformed shape spec {spec!r}: expected '(...)'")
    inner = text[1:-1].strip()
    if inner.endswith(","):
        inner = inner[:-1]
    dims: list = []
    if inner:
        for tok in inner.split(","):
            tok = tok.strip()
            if not tok:
                raise ValueError(f"malformed shape spec {spec!r}")
            dims.append(int(tok) if tok.lstrip("-").isdigit() else tok)
    return tuple(dims)


def _ndarray_param_names(fn: Callable) -> list:
    """Parameter names annotated as ndarrays, in signature order.

    Annotations are read as strings (the package uses ``from __future__
    import annotations``), so "np.ndarray" and "Optional[np.ndarray]"
    both count.
    """
    out = []
    for name, ann in getattr(fn, "__annotations__", {}).items():
        if name != "return" and "ndarray" in str(ann):
            out.append(name)
    return out


def _check_array(
    qualname: str,
    name: str,
    value: np.ndarray,
    dims: Optional[DimSpec],
    env: Dict[str, int],
    dtype,
    finite: bool,
) -> None:
    if dims is not None:
        if value.ndim != len(dims):
            raise ContractViolation(
                f"{qualname}: argument `{name}` has shape {value.shape}, "
                f"expected {len(dims)}-d {dims}"
            )
        for axis, dim in enumerate(dims):
            size = value.shape[axis]
            if isinstance(dim, int):
                if size != dim:
                    raise ContractViolation(
                        f"{qualname}: argument `{name}` axis {axis} has "
                        f"size {size}, expected {dim}"
                    )
            else:
                bound = env.setdefault(dim, size)
                if size != bound:
                    raise ContractViolation(
                        f"{qualname}: argument `{name}` axis {axis} has "
                        f"size {size}, but symbol `{dim}` is already "
                        f"bound to {bound}"
                    )
    if dtype is not None:
        if isinstance(dtype, tuple):
            if value.dtype not in dtype:
                raise ContractViolation(
                    f"{qualname}: argument `{name}` has dtype "
                    f"{value.dtype}, expected one of "
                    f"{', '.join(str(d) for d in dtype)}"
                )
        elif value.dtype != np.dtype(dtype):
            raise ContractViolation(
                f"{qualname}: argument `{name}` has dtype {value.dtype}, "
                f"expected {np.dtype(dtype)}"
            )
    if finite and not np.all(np.isfinite(value)):
        raise ContractViolation(
            f"{qualname}: argument `{name}` contains non-finite entries "
            "(NaN/Inf) — upstream stratification or wrapping has failed"
        )


def shape_contract(
    *specs: str,
    dtype=None,
    finite: bool = False,
    where: Optional[Dict[str, str]] = None,
) -> Callable[[Callable], Callable]:
    """Validate ndarray arguments of the decorated function.

    Parameters
    ----------
    *specs:
        Shape specs bound in order to the ndarray-annotated parameters,
        e.g. ``"(n,n)", "(n,)"``. Symbols are shared across one call.
    dtype:
        Exact dtype every checked array must have (None: skip). The
        string ``"compute"`` makes the contract precision-policy aware:
        when a call argument carries a policy (``backend.policy``), the
        arrays must match that policy's *declared* compute dtype
        exactly; with no carrier in the call, the ambient
        ($REPRO_PRECISION-resolved, default full64) policy's compute
        dtype applies. Accidental float16/object/complex arrays are
        rejected either way.
    finite:
        Also require every checked entry to be finite.
    where:
        Explicit ``{param_name: spec}`` mapping, merged over (and taking
        precedence against) the positional binding.
    """
    parsed = [_parse_spec(s) for s in specs]
    parsed_where = {k: _parse_spec(v) for k, v in (where or {}).items()}

    def decorate(fn: Callable) -> Callable:
        if not contracts_enabled():
            return fn
        array_params = _ndarray_param_names(fn)
        targets: Dict[str, Optional[DimSpec]] = dict(
            zip(array_params, parsed)
        )
        # Remaining annotated arrays get dtype/finite checks with no
        # shape constraint.
        for name in array_params:
            targets.setdefault(name, None)
        targets.update(parsed_where)
        if len(parsed) > len(array_params):
            raise ValueError(
                f"{fn.__qualname__}: {len(parsed)} shape spec(s) but only "
                f"{len(array_params)} ndarray-annotated parameter(s)"
            )
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            env: Dict[str, int] = {}
            if dtype == "compute":
                eff_dtype = (
                    _declared_compute_dtype(bound.arguments)
                    or _ambient_compute_dtype()
                )
            else:
                eff_dtype = dtype
            for name, dims in targets.items():
                value = bound.arguments.get(name)
                if isinstance(value, np.ndarray):
                    _check_array(
                        fn.__qualname__,
                        name,
                        value,
                        dims,
                        env,
                        eff_dtype,
                        finite,
                    )
            return fn(*args, **kwargs)

        wrapper.__contract__ = {  # introspection hook for tests/docs
            "specs": targets,
            "dtype": dtype,
            "finite": finite,
        }
        return wrapper

    return decorate
