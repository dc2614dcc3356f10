"""Expression helpers shared by MiniSQL's compiler and planner.

Evaluation itself lives in :mod:`~repro.db.minisql.compile`, which
lowers every expression to a closure.  This module keeps what both the
compiler and the executor's planner need: result-column naming, SQL
truth, the LIKE and numeric-string coercion helpers, and tree walks.
"""

from __future__ import annotations

import re
from typing import Any

from .ast_nodes import (
    Between, BinaryOp, CaseExpr, CastExpr, ColumnRef, Expression,
    FunctionCall, InList, IsNull, Like, Literal, Placeholder, Star, UnaryOp,
)
from .functions import is_aggregate


def ref_name(expr: Expression) -> str:
    """Human-readable name for an expression (used for result columns)."""
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FunctionCall):
        inner = ", ".join(ref_name(a) for a in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name.lower()}({prefix}{inner})"
    if isinstance(expr, Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, Literal):
        return repr(expr.value) if isinstance(expr.value, str) else str(expr.value)
    if isinstance(expr, BinaryOp):
        return f"{ref_name(expr.left)} {expr.op} {ref_name(expr.right)}"
    if isinstance(expr, UnaryOp):
        return f"{expr.op} {ref_name(expr.operand)}"
    if isinstance(expr, CastExpr):
        return f"cast({ref_name(expr.operand)} as {expr.target_type.lower()})"
    if isinstance(expr, Placeholder):
        return "?"
    return type(expr).__name__.lower()


def truthy(value: Any) -> bool:
    """SQL truth for WHERE/HAVING/ON: NULL and 0 are not true."""
    if value is None:
        return False
    if isinstance(value, str):
        # sqlite coerces numeric-looking strings in boolean context
        try:
            return float(value) != 0
        except ValueError:
            return False
    return bool(value)


_LIKE_CACHE: dict[str, re.Pattern[str]] = {}


def _like_regex(pattern: str) -> re.Pattern[str]:
    cached = _LIKE_CACHE.get(pattern)
    if cached is not None:
        return cached
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    compiled = re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)
    if len(_LIKE_CACHE) > 1024:
        _LIKE_CACHE.clear()
    _LIKE_CACHE[pattern] = compiled
    return compiled


def _maybe_number(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def _as_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# analysis helpers used by the planner
# ---------------------------------------------------------------------------


def walk(expr: Expression):
    """Yield ``expr`` and every sub-expression."""
    yield expr
    if isinstance(expr, UnaryOp):
        yield from walk(expr.operand)
    elif isinstance(expr, BinaryOp):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, IsNull):
        yield from walk(expr.operand)
    elif isinstance(expr, InList):
        yield from walk(expr.operand)
        for item in expr.items:
            yield from walk(item)
    elif isinstance(expr, Between):
        yield from walk(expr.operand)
        yield from walk(expr.low)
        yield from walk(expr.high)
    elif isinstance(expr, Like):
        yield from walk(expr.operand)
        yield from walk(expr.pattern)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk(arg)
    elif isinstance(expr, CaseExpr):
        if expr.operand is not None:
            yield from walk(expr.operand)
        for condition, result in expr.whens:
            yield from walk(condition)
            yield from walk(result)
        if expr.default is not None:
            yield from walk(expr.default)
    elif isinstance(expr, CastExpr):
        yield from walk(expr.operand)


def is_aggregate_call(node: Expression) -> bool:
    """True for genuine aggregate calls (excludes scalar 2+-arg MIN/MAX)."""
    return (
        isinstance(node, FunctionCall)
        and is_aggregate(node.name)
        and not (node.name in ("MIN", "MAX") and len(node.args) >= 2)
    )


def contains_aggregate(expr: Expression) -> bool:
    return any(is_aggregate_call(node) for node in walk(expr))


def column_refs(expr: Expression) -> list[ColumnRef]:
    return [node for node in walk(expr) if isinstance(node, ColumnRef)]
