"""Output oracles that share no code with fockcalc.

Each check re-derives a CLI result from the input document with plain
frozensets, ``math.prod`` and ``math.fsum`` and returns whether the program's
output agrees.  A functional is a dict mapping a frozenset of sites to a
complex coefficient; exact zeros are absent, as in the program's own model.
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, Iterable, Mapping

Terms = Dict[FrozenSet[int], complex]

#: Relative tolerance for values the program accumulates in floating point.
REL_TOL = 1e-12

#: Number of check records each verify suite reports.
VERIFY_CHECKS = {"car": 1, "bounds": 1, "commutation": 1, "clark": 1, "covariance": 1, "bridge": 4}


def terms_of(obj: Mapping[str, Any]) -> Terms:
    """Read a functional object; raises ValueError on a malformed or repeated set."""
    out: Terms = {}
    for term in obj["terms"]:
        elems = term["set"]
        if list(elems) != sorted(set(elems)):
            raise ValueError(f"set {elems!r} is not sorted strictly ascending")
        key = frozenset(elems)
        if key in out:
            raise ValueError(f"set {elems!r} appears twice")
        re, im = term["coef"]
        value = complex(re, im)
        if value != 0:
            out[key] = value
    return out


def weight(sigma: Iterable[int]) -> float:
    return float(math.prod(k + 1 for k in sigma))


def _top(sigma: FrozenSet[int]) -> int:
    return max(sigma, default=-1)


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + abs(b))


def pipeline(phi: Terms, k: int) -> Terms:
    """annihilate:k, then create:k, then condexp:k."""
    annihilated = {s - {k}: c for s, c in phi.items() if k in s}
    created = {s | {k}: c for s, c in annihilated.items() if k not in s}
    return {s: c for s, c in created.items() if _top(s) <= k}


def norm_dual(phi: Terms, p: float) -> float:
    return math.sqrt(math.fsum(weight(s) ** (-2.0 * p) * abs(c) ** 2 for s, c in phi.items()))


def cov(phi: Terms, psi: Terms, p: float) -> complex:
    """Dual pairing of the centred functionals, conjugate on the second."""
    parts = [
        weight(s) ** (-2.0 * p) * c * psi[s].conjugate()
        for s, c in phi.items()
        if s and s in psi
    ]
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


def check_apply(doc: Mapping[str, Any], k: int, out: Mapping[str, Any]) -> bool:
    return terms_of(out) == pipeline(terms_of(doc), k)


def check_norm_dual(doc: Mapping[str, Any], p: float, text: str) -> bool:
    return math.isclose(float(text), norm_dual(terms_of(doc), p), rel_tol=REL_TOL)


def check_decompose(doc: Mapping[str, Any], levels: int, out: Mapping[str, Any]) -> bool:
    """Mean plus per-site terms rebuild the input, and the final residual is 0.

    ``levels`` is the number of dual levels the call asked for with ``--q``.
    """
    phi = terms_of(doc)
    mean = terms_of(out["mean"])
    if mean != {s: c for s, c in phi.items() if not s}:
        return False
    rebuilt = dict(mean)
    for key, obj in out["terms"].items():
        site_terms = terms_of(obj)
        if not site_terms or any(_top(s) != int(key) for s in site_terms):
            return False
        if rebuilt.keys() & site_terms.keys():
            return False
        rebuilt.update(site_terms)
    if rebuilt != phi:
        return False
    top = max((_top(s) for s in phi), default=-1)
    if out["termination_index"] != top:
        return False
    final = [row["residual"] for row in out["residuals"] if row["n"] == top]
    return len(out["residuals"]) == levels * (top + 1) and all(r == 0.0 for r in final)


def check_cov(
    doc: Mapping[str, Any], other: Mapping[str, Any], p: float, out: Mapping[str, Any]
) -> bool:
    """lhs equals rhs, both equal the pairing recomputed here, and the
    per-site entries cover sites 0..top and add up to rhs."""
    phi, psi = terms_of(doc), terms_of(other)
    lhs = complex(*out["lhs"])
    rhs = complex(*out["rhs"])
    expected = cov(phi, psi, p)
    top = max((_top(s) for s in (*phi, *psi)), default=-1)
    per_site = [complex(*out["per_k"][str(k)]) for k in range(top + 1)]
    return (
        len(out["per_k"]) == top + 1
        and _close(sum(per_site), rhs)
        and _close(lhs, rhs)
        and _close(lhs, expected)
        and _close(rhs, expected)
    )


def verify_failures(suite: str, returncode: Any, report: Any) -> int:
    """Failed checks of one verify call: missing, failing, or a non-zero exit."""
    expected = VERIFY_CHECKS[suite]
    if not isinstance(report, dict) or not isinstance(report.get("checks"), list):
        return expected
    passed = sum(1 for c in report["checks"] if isinstance(c, dict) and c.get("pass") is True)
    failed = expected - min(passed, expected)
    if failed == 0 and (returncode != 0 or report.get("pass") is not True):
        failed = 1
    return failed
