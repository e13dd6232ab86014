"""Generator and matrix documents: the nested key-value form in which a
scenario config carries a Lindblad generator and an initial state.

Documents are plain dicts and lists, read and written as JSON by the
caller.  A matrix document is a list of rows of [re, im] pairs; a generator
document gives its dimension explicitly.  Rates round-trip bit-exactly
because JSON float text uses repr, which is lossless for IEEE doubles; only
the named builtin coefficient families (constant, cosine-squared,
exponential) are serializable.
"""

from __future__ import annotations

import numpy as np

from ._util import is_finite_number, is_int
from .channels import (
    ConstantCoefficient,
    CosineSquaredCoefficient,
    ExponentialCoefficient,
    JumpTerm,
    LindbladGenerator,
    TailGuard,
)

__all__ = [
    "SerializationError",
    "matrix_to_document",
    "matrix_from_document",
    "generator_to_document",
    "generator_from_document",
]


class SerializationError(ValueError):
    pass


_REQUIRED = object()


def _field(doc, key: str, what: str, default=_REQUIRED, number: bool = False):
    """doc[key] of a ``what`` document; a missing key or a non-number (NaN,
    inf and an integer too large for a float too) raises."""
    if not isinstance(doc, dict) or (key not in doc and default is _REQUIRED):
        raise SerializationError(f"{what} document has no {key!r}: {doc!r}")
    value = doc.get(key, default)
    if number and not is_finite_number(value):
        raise SerializationError(f"{what} {key!r} must be a finite number, got {value!r}")
    return value


def matrix_to_document(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _complex(entry, i: int, j: int) -> complex:
    try:
        re, im = entry
        value = complex(re, im)
    except (TypeError, ValueError):
        raise SerializationError(
            f"matrix entry [{i}][{j}] is not an [re, im] pair: {entry!r}") from None
    except OverflowError:  # an integer too large for a float
        value = complex(np.inf)
    if not np.isfinite(value):
        raise SerializationError(f"matrix entry [{i}][{j}] is not finite: {entry!r}")
    return value


def matrix_from_document(doc) -> np.ndarray:
    if not (isinstance(doc, list) and doc
            and all(isinstance(row, list) and len(row) == len(doc[0]) > 0 for row in doc)):
        raise SerializationError(f"a matrix document is a list of equally long rows, got {doc!r}")
    return np.array([[_complex(entry, i, j) for j, entry in enumerate(row)]
                     for i, row in enumerate(doc)])


def _rate_to_document(rate) -> dict:
    if isinstance(rate, ConstantCoefficient):
        return {"type": "constant", "value": rate.value}
    if isinstance(rate, CosineSquaredCoefficient):
        return {"type": "cosine_squared", "omega": rate.omega, "scale": rate.scale}
    if isinstance(rate, ExponentialCoefficient):
        return {"type": "exponential", "decay": rate.decay, "scale": rate.scale}
    raise SerializationError(
        f"rate {rate!r} is not one of the named serializable coefficient families"
    )


def _rate_from_document(doc: dict):
    kind = _field(doc, "type", "rate")
    what = f"{kind} rate"
    if kind == "constant":
        return ConstantCoefficient(_field(doc, "value", what, number=True))
    if kind == "cosine_squared":
        return CosineSquaredCoefficient(omega=_field(doc, "omega", what, number=True),
                                        scale=_field(doc, "scale", what, 1.0, number=True))
    if kind == "exponential":
        return ExponentialCoefficient(decay=_field(doc, "decay", what, number=True),
                                      scale=_field(doc, "scale", what, 1.0, number=True))
    raise SerializationError(f"unknown rate tag {kind!r}")


def generator_to_document(generator: LindbladGenerator) -> dict:
    hamiltonian = generator.hamiltonian
    doc = {
        "kind": "lindblad_generator",
        "dim": generator.dim,
        "hamiltonian": None if hamiltonian is None else matrix_to_document(hamiltonian),
        "jumps": [{"rate": _rate_to_document(term.rate),
                   "operator": matrix_to_document(term.operator)} for term in generator.jumps],
    }
    if generator.tail_guard is not None:
        doc["tail_guard"] = {
            "levels": generator.tail_guard.levels,
            "bound": generator.tail_guard.bound,
        }
    return doc


def generator_from_document(doc: dict) -> LindbladGenerator:
    if _field(doc, "kind", "generator", None) != "lindblad_generator":
        raise SerializationError(f"not a generator document: kind={doc.get('kind')!r}")
    dim, hamiltonian, jumps = (_field(doc, k, "generator") for k in ("dim", "hamiltonian", "jumps"))
    if not (is_int(dim) and dim > 0 and isinstance(jumps, list)):
        raise SerializationError(f"generator 'dim' must be a positive integer and 'jumps' a list: "
                                 f"{doc!r}")
    hamiltonian = None if hamiltonian is None else matrix_from_document(hamiltonian)
    jumps = [JumpTerm(_rate_from_document(_field(j, "rate", "jump")),
                      matrix_from_document(_field(j, "operator", "jump"))) for j in jumps]
    guard, tail_guard = doc.get("tail_guard"), None
    if guard:
        levels = _field(guard, "levels", "tail_guard")
        bound = _field(guard, "bound", "tail_guard", number=True)
        if not (is_int(levels) and 1 <= levels <= dim and bound >= 0):
            raise SerializationError(f"tail_guard needs an integer 'levels' in [1, {dim}] and a "
                                     f"'bound' >= 0, got {guard!r}")
        tail_guard = TailGuard(levels=levels, bound=bound)
    return LindbladGenerator(dim, hamiltonian=hamiltonian, jumps=jumps, tail_guard=tail_guard)
