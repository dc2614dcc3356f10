"""AST node definitions for MiniSQL statements and expressions.

Every node is a frozen-ish dataclass; the parser builds these and the
planner/executor consume them.  Expression nodes implement nothing —
evaluation lives in :mod:`repro.db.minisql.compile` so the AST stays a
pure data description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expression:
    """Abstract base for expression nodes."""


@dataclass
class Literal(Expression):
    """A constant: number, string, boolean or NULL."""

    value: Any


@dataclass
class Placeholder(Expression):
    """A ``?`` positional parameter; ``index`` is assigned by the parser."""

    index: int


@dataclass
class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expression):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


@dataclass
class UnaryOp(Expression):
    op: str  # '-', '+', 'NOT'
    operand: Expression


@dataclass
class BinaryOp(Expression):
    op: str  # arithmetic, comparison, AND/OR, '||'
    left: Expression
    right: Expression


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    operand: Expression
    items: list[Expression] = field(default_factory=list)
    negated: bool = False


@dataclass
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass
class Subquery(Expression):
    """An uncorrelated scalar-column subquery, e.g. ``IN (SELECT id ...)``.

    It compiles to a closure over a cell the executor fills by running
    the subquery once per execution (see ``compile.SubqueryCell``).
    """

    select: "Select"


@dataclass
class FunctionCall(Expression):
    """A scalar or aggregate function call.

    ``distinct`` applies to aggregates (``COUNT(DISTINCT x)``).  A bare
    ``COUNT(*)`` is represented with a single :class:`Star` argument.
    """

    name: str  # upper-cased
    args: list[Expression] = field(default_factory=list)
    distinct: bool = False


@dataclass
class CaseExpr(Expression):
    """``CASE [operand] WHEN .. THEN .. [ELSE ..] END``."""

    operand: Optional[Expression]
    whens: list[tuple[Expression, Expression]] = field(default_factory=list)
    default: Optional[Expression] = None


@dataclass
class CastExpr(Expression):
    operand: Expression
    target_type: str  # canonical type name, see types.py


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Statement:
    """Abstract base for statements."""


@dataclass
class ColumnDef:
    name: str
    type_name: str  # canonical type name
    not_null: bool = False
    primary_key: bool = False
    autoincrement: bool = False
    unique: bool = False
    default: Optional[Expression] = None
    references: Optional[tuple[str, str]] = None  # (table, column)


@dataclass
class ForeignKeySpec:
    columns: list[str]
    ref_table: str
    ref_columns: list[str]


@dataclass
class CreateTable(Statement):
    table: str
    columns: list[ColumnDef]
    if_not_exists: bool = False
    primary_key: list[str] = field(default_factory=list)
    unique_constraints: list[list[str]] = field(default_factory=list)
    foreign_keys: list[ForeignKeySpec] = field(default_factory=list)


@dataclass
class DropTable(Statement):
    table: str
    if_exists: bool = False


@dataclass
class CreateIndex(Statement):
    name: str
    table: str
    columns: list[str]
    unique: bool = False
    if_not_exists: bool = False
    using: str = "hash"  # "hash" (equality only) or "btree" (ordered)


@dataclass
class DropIndex(Statement):
    name: str
    if_exists: bool = False


@dataclass
class AlterTableAddColumn(Statement):
    table: str
    column: ColumnDef


@dataclass
class AlterTableRename(Statement):
    table: str
    new_name: str


@dataclass
class Insert(Statement):
    table: str
    columns: list[str]  # empty -> table order
    rows: list[list[Expression]] = field(default_factory=list)
    select: Optional["Select"] = None  # INSERT INTO t SELECT ...


@dataclass
class Update(Statement):
    table: str
    assignments: list[tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass
class TableRef:
    """A table in a FROM clause, with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_name(self) -> str:
        return self.alias or self.name


@dataclass
class Join:
    """A join clause attached to the preceding FROM item."""

    kind: str  # 'INNER', 'LEFT', 'CROSS'
    table: TableRef
    condition: Optional[Expression] = None


@dataclass
class SelectItem:
    expr: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expression
    descending: bool = False


@dataclass
class Select(Statement):
    items: list[SelectItem] = field(default_factory=list)
    table: Optional[TableRef] = None
    joins: list[Join] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False
    compound: Optional[tuple[str, "Select"]] = None  # ('UNION'|'UNION ALL'|..., rhs)


@dataclass
class BeginTransaction(Statement):
    pass


@dataclass
class CommitTransaction(Statement):
    pass


@dataclass
class RollbackTransaction(Statement):
    pass


@dataclass
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <statement>`` — describe the execution strategy.

    With ``analyze`` the statement is actually executed and each plan
    step is annotated with the rows it produced and its wall time.
    """

    statement: "Statement"
    analyze: bool = False


@dataclass
class Pragma(Statement):
    """``PRAGMA table_info(name)`` and friends — metadata introspection."""

    name: str
    argument: Optional[str] = None


StatementType = Union[
    CreateTable, DropTable, CreateIndex, DropIndex, AlterTableAddColumn,
    AlterTableRename, Insert, Update, Delete, Select, BeginTransaction,
    CommitTransaction, RollbackTransaction, Pragma,
]
