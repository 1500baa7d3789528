"""JSON wire formats for functionals and reports.

Functional schema::

    {"terms": [{"set": [0, 2], "coef": [3.0, 0.0]}]}

``set`` must be sorted strictly ascending with nonnegative entries; ``coef``
is [re, im]; any other key is refused.  Serialization emits terms in
ascending bit-mask order with repr-exact floats, so
``parse_document(to_json(functional_to_obj(phi)))`` reproduces phi bit for bit.

Writer rule: the standard library's ``json.dumps`` writes every document.
The one exception is a report's residual or per-site table, whose rows are
expanded from one row json wrote with a slot for each value, and spliced
into the report json wrote around it; the text is json's own, byte for byte.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple, Union

from .clark_ocone import DecompositionReport, ResidualTable
from .covariance import CovarianceReport, SiteTable
from .errors import CapExceededError, NegativeIndexError, NonFiniteResultError, SchemaError
from .functional import FockFunctional, make_functional
from .gamma import _MAX_SITE, SubsetIndex


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
        if entry > _MAX_SITE:
            raise CapExceededError(f"{where}[{i}]: site {entry} exceeds the site cap {_MAX_SITE}")
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


def parse_document(text: str) -> FockFunctional:
    """Parse a functional document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected an object")
    unknown = set(raw) - {"terms"}
    if unknown:
        raise SchemaError(f"top level: unknown keys {sorted(unknown)}")
    if "terms" not in raw or not isinstance(raw["terms"], list):
        raise SchemaError("top level: 'terms' must be a list")
    return make_functional([_parse_term(t, f"terms[{i}]") for i, t in enumerate(raw["terms"])])


def functional_to_obj(phi: FockFunctional) -> Dict[str, Any]:
    return {
        "terms": [
            {"set": list(sigma.elements), "coef": [coef.real, coef.imag]}
            for sigma, coef in phi.items()
        ]
    }


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


def to_json(payload: Any, indent: Optional[int] = None) -> str:
    """Strict JSON text; a non-finite number raises NonFiniteResultError naming its field."""
    try:
        return json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError:
        field = _non_finite_field(payload, "")
        if field is None:
            raise
        raise NonFiniteResultError(
            f"output field {field} is not a finite number"
        ) from None


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


#: Stands for the table in its report, and for each value of a table row, in
#: the texts json writes.  json writes it as "\u0000", which no other text of
#: a report holds: its only strings are keys, and none of them holds a NUL.
_SLOT = "\x00"
_SLOT_TEXT = json.dumps(_SLOT)

#: A report's table sits at depth 1 of its indent-2 text, so each table entry
#: opens a line indented by 4 and the closing bracket one indented by 2.
_ENTRY_BREAK = ",\n    "


def _entry_text(obj: Any) -> str:
    # ``obj`` as json writes it for a table entry, at depth 2 of an indent-2 text.
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", "\n    ")


#: A residual row's text before its n, q and residual, and after the residual.
_ROW_N, _ROW_Q, _ROW_RESIDUAL, _ROW_END = _entry_text(
    _residual_row(_SLOT, _SLOT, _SLOT)
).split(_SLOT_TEXT)


def _float_text(value: float) -> str:
    # The text json writes for a float, and its ValueError for a non-finite one.
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _table_text(entries: List[str], brackets: str) -> str:
    if not entries:
        return brackets
    return brackets[0] + "\n    " + _ENTRY_BREAK.join(entries) + "\n  " + brackets[1]


def _residual_rows(table: ResidualTable) -> str:
    # Each run's rows are joined once, with a raw NUL for n; each n of the run
    # then costs one join.
    if not table:
        return "[]"
    levels = [_ROW_N + _SLOT + _ROW_Q + _float_text(q) + _ROW_RESIDUAL for q in table.levels]
    rows: List[str] = []
    for span, row in table.runs():
        run = _ENTRY_BREAK.join(
            [level + _float_text(r) + _ROW_END for level, r in zip(levels, row)]
        ).split(_SLOT)
        rows.extend(str(n).join(run) for n in span)
    return _table_text(rows, "[]")


def _site_entries(table: SiteTable) -> str:
    # Each stored pair, and the 0j of every other site, is written once.
    zero = _entry_text(_pair(0j))
    stored = {k: _entry_text(_pair(z)) for k, z in table.stored.items()}
    return _table_text([f'"{k}": {stored.get(k, zero)}' for k in table], "{}")


def _require_table_rows(name: str, rows: int) -> None:
    """Refuse the ``name`` table ("decompose residual" or "cov per_k") past 2**20 rows.

    Both tables hold a row for every site up to the top one, and a row costs
    a few dozen bytes of text, so a far site costs gigabytes.  The row count
    is known from the input, so a command checks it before any operator runs.
    """
    if rows > 1 << 20:
        raise CapExceededError(f"the {name} table has {rows} rows, past the cap of {1 << 20}")


def report_to_json(report: Union[DecompositionReport, CovarianceReport]) -> str:
    """``to_json(<report>_to_obj(report), indent=2)``, byte for byte.

    json writes the report with a placeholder for its residual or per-site
    table, and the table's text, expanded from the stored rows, replaces it,
    so the dense payload is never built.  If a value is not finite, the dense
    payload is built after all, and its NonFiniteResultError names the field.
    A table dense over more than 2**20 rows raises CapExceededError before
    any row text is built.
    """
    if isinstance(report, DecompositionReport):
        payload = _decomposition_payload(report, _SLOT)
        write_table, table, dense = _residual_rows, report.residual_norms, decomposition_to_obj
        name = "decompose residual"
    else:
        payload = _covariance_payload(report, _SLOT)
        write_table, table, dense = _site_entries, report.per_site, covariance_to_obj
        name = "cov per_k"
    _require_table_rows(name, len(table))
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
        return text.replace(_SLOT_TEXT, write_table(table), 1)
    except ValueError:
        return to_json(dense(report), indent=2)
