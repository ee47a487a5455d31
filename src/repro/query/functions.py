"""User-defined aggregate functions (the ``g`` and ``h`` of the paper).

A :class:`Function` is a named, pure, unary numeric function together with a
numpy-vectorised form. Names identify functions: two factors with the same
function name and attribute are considered the same computation and are
shared by the optimiser, so names must be unique per behaviour (the
:class:`FunctionRegistry` enforces this).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.util.errors import QueryError

#: process-wide name → live Function map (weak: does not pin instances).
#: This is what makes functions *transportable by name*: the multiprocess
#: executor pickles a Function as just its name (the registry contract says
#: names are unique per behaviour), and :func:`resolve_function` restores
#: the live object on the other side — from this map when the instance
#: exists in the receiving process, or by reconstruction for the built-ins
#: and the mechanically derived ``ind[...]`` indicators.
_LIVE_FUNCTIONS: "weakref.WeakValueDictionary[str, Function]" = (
    weakref.WeakValueDictionary()
)


@dataclass(frozen=True)
class Function:
    """A named unary numeric function used inside SUM(...) products.

    Attributes
    ----------
    name:
        Unique identifier; structural equality of factors is by name.
    vectorized:
        ``f(np.ndarray) -> np.ndarray`` applied to whole columns. The scalar
        form is derived from it.
    """

    name: str
    vectorized: Callable[[np.ndarray], np.ndarray] = field(compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("function name must be non-empty")
        # first creation wins — names are unique per behaviour, so keeping
        # the earliest live instance is sound and keeps resolve stable
        if _LIVE_FUNCTIONS.get(self.name) is None:
            _LIVE_FUNCTIONS[self.name] = self

    def __reduce__(self):
        # Pickle by name: ``vectorized`` is usually a lambda (unpicklable),
        # and equality is by name anyway. Unpickling resolves the live
        # instance or reconstructs built-ins/indicators — the transport the
        # process-parallel executor (repro.core.mpexec) relies on.
        return (resolve_function, (self.name,))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Apply to a column (or scalar) and return float64 results."""
        return np.asarray(self.vectorized(np.asarray(values)), dtype=np.float64)

    def scalar(self, value: float) -> float:
        """Apply to a single value."""
        return float(self.vectorized(np.asarray([value]))[0])

    def __repr__(self) -> str:
        return f"Function({self.name})"


#: The identity function — ``SUM(X)`` uses ``identity`` on ``X``.
identity = Function("id", lambda x: x.astype(np.float64))

#: The constant-one function — ``SUM(1)`` has no factors, but ``one`` exists
#: for explicitness in tests.
one = Function("one", lambda x: np.ones(len(x), dtype=np.float64))

#: Squaring — ``SUM(X*X)`` can also be written as a single ``square`` factor.
square = Function("sq", lambda x: x.astype(np.float64) ** 2)


def indicator(op: str, threshold: float) -> Function:
    """An indicator function ``1[x op threshold]``.

    LMFAO compiles WHERE predicates into indicator factors inside the sum
    product, which is how decision-tree condition batches stay in one pass
    (see :mod:`repro.ml.cart`).
    """
    ops: dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "<=": lambda x: x <= threshold,
        ">=": lambda x: x >= threshold,
        "<": lambda x: x < threshold,
        ">": lambda x: x > threshold,
        "==": lambda x: x == threshold,
        "!=": lambda x: x != threshold,
    }
    if op not in ops:
        raise QueryError(f"unknown predicate operator {op!r}")
    fn = ops[op]
    compact = repr(float(threshold)) if threshold != int(threshold) else str(int(threshold))
    return Function(f"ind[{op}{compact}]", lambda x, _fn=fn: _fn(x).astype(np.float64))


_INDICATOR_OPS = ("<=", ">=", "==", "!=", "<", ">")  # longest-match first


def is_indicator(fn: Function) -> bool:
    """Whether ``fn`` is an ``ind[...]`` indicator: a folded ``WHERE``
    predicate, which carries its request's constant."""
    return fn.name.startswith("ind[")


def _parse_indicator_name(name: str) -> Function | None:
    """Reconstruct an ``ind[<op><threshold>]`` function from its name."""
    if not (name.startswith("ind[") and name.endswith("]")):
        return None
    body = name[4:-1]
    for op in _INDICATOR_OPS:
        if body.startswith(op):
            try:
                return indicator(op, float(body[len(op):]))
            except (ValueError, QueryError):
                return None
    return None


def resolve_function(name: str) -> Function:
    """The live :class:`Function` for ``name`` (the unpickle counterpart).

    Resolution order: a live instance in this process (covers every
    function created here, including user registrations inherited across
    ``fork``), then the built-ins, then mechanical reconstruction of
    ``ind[...]`` indicator names. Raises :class:`QueryError` for names
    that cannot be restored — the process executor checks
    :func:`transportable` *before* shipping work, so this error means a
    caller bypassed that check.
    """
    live = _LIVE_FUNCTIONS.get(name)
    if live is not None:
        return live
    restored = _parse_indicator_name(name)
    if restored is not None:
        return restored
    raise QueryError(
        f"function {name!r} cannot be reconstructed in this process: only "
        f"built-ins, indicators and functions created in (or inherited by) "
        f"the process resolve by name"
    )


def transportable(fn: Function) -> bool:
    """Whether ``fn`` survives pickle-by-name into a *fresh* process.

    True for the built-ins and for ``ind[...]`` indicators — the functions
    every parsed query and folded predicate uses. Custom lambdas resolve
    only where the instance (or a forked copy) already lives, so the
    process executor keeps groups using them on the scheduler process.
    """
    return fn.name in ("id", "one", "sq") or _parse_indicator_name(fn.name) is not None


class FunctionRegistry:
    """Name → :class:`Function` mapping used by the SQL-ish parser.

    Starts with the built-ins (``id``, ``one``, ``sq``) and accepts user
    registrations; re-registering a name with a different object raises.
    """

    def __init__(self) -> None:
        self._functions: dict[str, Function] = {}
        for fn in (identity, one, square):
            self._functions[fn.name] = fn

    def register(self, fn: Function) -> Function:
        existing = self._functions.get(fn.name)
        if existing is not None and existing is not fn:
            raise QueryError(f"function {fn.name!r} already registered")
        self._functions[fn.name] = fn
        return fn

    def get(self, name: str) -> Function:
        try:
            return self._functions[name]
        except KeyError:
            raise QueryError(f"unknown function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions
