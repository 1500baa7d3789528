"""JSON wire formats for functionals and reports.

Functional schema::

    {"terms": [{"set": [0, 2], "coef": [3.0, 0.0]}],
     "envelope": {"C": 1.0, "p": 0.0}}

``set`` must be sorted strictly ascending with nonnegative entries; ``coef``
is [re, im]; ``envelope`` is optional.  Serialization emits terms in
ascending bit-mask order with repr-exact floats, so parse(serialize(phi))
reproduces phi bit for bit.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple, Union

from .clark_ocone import DecompositionReport, ResidualTable
from .covariance import CovarianceReport, SiteTable
from .errors import NegativeIndexError, NonFiniteResultError, SchemaError
from .functional import FockFunctional, GrowthEnvelope, make_functional
from .gamma import SubsetIndex


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond double range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{where}: expected a finite number, got {value!r}")
    return number


def parse_subset(raw: Any, where: str = "subset") -> SubsetIndex:
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of integers")
    elements: List[int] = []
    for i, entry in enumerate(raw):
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise SchemaError(f"{where}[{i}]: expected an integer, got {entry!r}")
        if entry < 0:
            raise NegativeIndexError(f"{where}[{i}]: negative index {entry}")
        elements.append(entry)
    for i in range(1, len(elements)):
        if elements[i] <= elements[i - 1]:
            raise SchemaError(f"{where}: not sorted strictly ascending at position {i}")
    return SubsetIndex(elements)


def _parse_term(raw: Any, where: str) -> Tuple[SubsetIndex, complex]:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(raw) - {"set", "coef"}
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    if "set" not in raw or "coef" not in raw:
        raise SchemaError(f"{where}: needs both 'set' and 'coef'")
    sigma = parse_subset(raw["set"], f"{where}.set")
    coef = raw["coef"]
    if not isinstance(coef, list) or len(coef) != 2:
        raise SchemaError(f"{where}.coef: expected [re, im]")
    re = _number(coef[0], f"{where}.coef[0]")
    im = _number(coef[1], f"{where}.coef[1]")
    return sigma, complex(re, im)


def parse_document(text: str) -> Tuple[FockFunctional, Optional[GrowthEnvelope]]:
    """Parse a functional document, returning the optional envelope too."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected an object")
    unknown = set(raw) - {"terms", "envelope"}
    if unknown:
        raise SchemaError(f"top level: unknown keys {sorted(unknown)}")
    if "terms" not in raw or not isinstance(raw["terms"], list):
        raise SchemaError("top level: 'terms' must be a list")
    pairs = [_parse_term(t, f"terms[{i}]") for i, t in enumerate(raw["terms"])]
    phi = make_functional(pairs)
    envelope = None
    if "envelope" in raw:
        env = raw["envelope"]
        if not isinstance(env, dict) or set(env) != {"C", "p"}:
            raise SchemaError("envelope: expected an object with keys C and p")
        envelope = GrowthEnvelope(
            C=_number(env["C"], "envelope.C"), p=_number(env["p"], "envelope.p")
        )
    return phi, envelope


def parse_functional(text: str) -> FockFunctional:
    """Parse the functional part of a document (envelope ignored if present)."""
    return parse_document(text)[0]


def functional_to_obj(
    phi: FockFunctional, envelope: Optional[GrowthEnvelope] = None
) -> Dict[str, Any]:
    obj: Dict[str, Any] = {
        "terms": [
            {"set": list(sigma.elements), "coef": [coef.real, coef.imag]}
            for sigma, coef in phi.items()
        ]
    }
    if envelope is not None:
        obj["envelope"] = {"C": envelope.C, "p": envelope.p}
    return obj


def _non_finite_field(value: Any, where: str) -> Optional[str]:
    # Path of the first non-finite float in a JSON-ready payload, if any.
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    if isinstance(value, dict):
        children = ((f"{where}.{k}" if where else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        children = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for path, child in children:
        found = _non_finite_field(child, path)
        if found is not None:
            return found
    return None


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_INF = math.inf

#: Stands for the level n in a residual row written once for a whole run.  It
#: is written as a raw NUL, which no other JSON text holds (strings escape it).
_SITE = object()
_SITE_TEXT = "\x00"


def _scalar_text(value: Any) -> Optional[str]:
    """JSON text of an exact str, float, int, bool or None; None for anything else."""
    kind = type(value)
    if kind is float:
        if not -_INF < value < _INF:
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return _float_repr(value)
    if kind is int:
        return _int_repr(value)
    if kind is str:
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is _SITE:
        return _SITE_TEXT
    return None


def _indented(payload: Any, indent: int, newline: str = "\n") -> str:
    """``json.dumps(payload, indent=indent, allow_nan=False)``, byte for byte.

    The stdlib writes indented JSON with its pure-Python encoder; this is the
    same output from one recursion appending to one list.  Exact str, float,
    int, bool, None, list, tuple and str-keyed dict values are written here;
    a ``ResidualTable`` is written as ``decomposition_to_obj``'s residual
    list and a ``SiteTable`` as ``covariance_to_obj``'s ``per_k`` object.
    Any other value (a subclass, a non-str key, an unserializable object)
    goes to the stdlib, its lines shifted to the current depth.  There is no
    circular-reference check: payloads are trees.  ``newline`` is a line
    break and the indentation of the payload's own depth.
    """
    step = " " * indent
    out: List[str] = []
    append = out.append

    def write(value: Any, newline: str) -> None:
        # ``newline`` is a line break and the indentation of value's own depth.
        kind = type(value)
        if kind is dict:
            if not value:
                append("{}")
                return
            start = len(out)
            inner = newline + step
            comma = "," + inner
            sep = "{" + inner
            for key, item in value.items():
                if type(key) is not str:
                    del out[start:]
                    break
                head = sep + _encode_str(key) + ": "
                text = _scalar_text(item)
                if text is None:
                    append(head)
                    write(item, inner)
                else:
                    append(head + text)
                sep = comma
            else:
                append(newline + "}")
                return
        elif kind is list or kind is tuple:
            if not value:
                append("[]")
                return
            inner = newline + step
            comma = "," + inner
            sep = "[" + inner
            for item in value:
                text = _scalar_text(item)
                if text is None:
                    append(sep)
                    write(item, inner)
                else:
                    append(sep + text)
                sep = comma
            append(newline + "]")
            return
        elif kind is ResidualTable:
            append(_residual_rows(value, indent, newline))
            return
        elif kind is SiteTable:
            append(_site_entries(value, indent, newline))
            return
        else:
            text = _scalar_text(value)
            if text is not None:
                append(text)
                return
        # Any other value, or a dict with a non-str key, is the stdlib's.  Its
        # strings hold no raw line break, so each one starts an indented line.
        append(json.dumps(value, indent=indent, allow_nan=False).replace("\n", newline))

    write(payload, newline)
    return "".join(out)


def _residual_rows(table: ResidualTable, indent: int, newline: str) -> str:
    # Each run's rows are written once, with _SITE for n, as a list at this
    # depth whose brackets are cut off; each n of the run then costs one join.
    if not table:
        return "[]"
    inner = newline + " " * indent
    rows: List[str] = []
    for span, row in table.runs():
        template = _indented(
            [_residual_row(_SITE, q, r) for q, r in zip(table.levels, row)], indent, newline
        )[len(inner) + 1 : -len(newline) - 1].split(_SITE_TEXT)
        rows.extend(str(n).join(template) for n in span)
    return "[" + inner + ("," + inner).join(rows) + newline + "]"


def _site_entries(table: SiteTable, indent: int, newline: str) -> str:
    # Each stored value, and the 0j of every other site, is written once.
    if not table:
        return "{}"
    inner = newline + " " * indent
    zero = _indented(_pair(0j), indent, inner)
    stored = {k: _indented(_pair(z), indent, inner) for k, z in table.stored.items()}
    entries = [f'"{k}": {stored.get(k, zero)}' for k in table]
    return "{" + inner + ("," + inner).join(entries) + newline + "}"


def to_json(payload: Any, indent: Optional[int] = None) -> str:
    """Strict JSON text; a non-finite number raises NonFiniteResultError naming its field.

    Equal to ``json.dumps(payload, indent=indent, allow_nan=False)``.
    """
    try:
        if indent is None:
            return json.dumps(payload, allow_nan=False)
        return _indented(payload, indent)
    except ValueError:
        field = _non_finite_field(payload, "")
        if field is None:
            raise
        raise NonFiniteResultError(
            f"output field {field} is not a finite number"
        ) from None


def serialize_functional(
    phi: FockFunctional, envelope: Optional[GrowthEnvelope] = None, indent: Optional[int] = None
) -> str:
    return to_json(functional_to_obj(phi, envelope), indent=indent)


def _residual_row(n: Any, q: float, residual: float) -> Dict[str, Any]:
    return {"n": n, "q": q, "residual": residual}


def _pair(z: complex) -> List[float]:
    return [z.real, z.imag]


def _decomposition_payload(report: DecompositionReport, residuals: Any) -> Dict[str, Any]:
    return {
        "mean": functional_to_obj(report.mean),
        "terms": {str(k): functional_to_obj(report.terms[k]) for k in sorted(report.terms)},
        "termination_index": report.termination_index,
        "residuals": residuals,
    }


def _covariance_payload(report: CovarianceReport, per_k: Any) -> Dict[str, Any]:
    return {
        "lhs": _pair(report.lhs),
        "rhs": _pair(report.rhs),
        "per_k": per_k,
        "gap": report.gap,
    }


def decomposition_to_obj(report: DecompositionReport) -> Dict[str, Any]:
    """Mean, per-site terms keyed by decimal site, and one residual row per (n, q)."""
    return _decomposition_payload(
        report,
        [_residual_row(n, q, residual) for (n, q), residual in report.residual_norms.items()],
    )


def covariance_to_obj(report: CovarianceReport) -> Dict[str, Any]:
    """Both covariance routes as [re, im], one ``per_k`` entry per site, and the gap."""
    return _covariance_payload(report, {str(k): _pair(v) for k, v in report.per_site.items()})


def report_to_json(report: Union[DecompositionReport, CovarianceReport]) -> str:
    """``to_json(<report>_to_obj(report), indent=2)``, byte for byte.

    The residual or per-site table goes to the writer as stored and is
    expanded there, so the dense payload is never built.  If a value is not
    finite, the dense payload is built after all, and its NonFiniteResultError
    names the field.
    """
    if isinstance(report, DecompositionReport):
        payload = _decomposition_payload(report, report.residual_norms)
        dense = decomposition_to_obj
    else:
        payload = _covariance_payload(report, report.per_site)
        dense = covariance_to_obj
    try:
        return _indented(payload, 2)
    except ValueError:
        return to_json(dense(report), indent=2)
