"""The vectorized batch execution layer: RowBatch + expression compiler.

The row engine in :mod:`repro.executor.plan` interprets expression trees
one context at a time: every row pays a Python function call per
expression node plus a generator resumption per operator.  The batch
engine amortises both: operators exchange :class:`RowBatch` chunks of
~1024 rows, and expressions are *compiled* — the interpreted tree is
lowered into Python source code with MySQL's three-valued NULL semantics
spelled out inline, ``compile()``-d once, and evaluated with a single
function call per batch.

Lowering is total: every block plan of a statement runs in batch mode,
subquery bodies and nested-loop inners included.  A window function runs
the row engine's window kernel over its buffered input.  A subquery
expression is one call per row into the row-compiled closure, which keys
the subquery cache and runs the body's batch plan
(``Executor.run_block``).  A plan that reads entries from outside its
own operator subtree — a body's correlation sources, the outer entries
of a nested-loop inner — is lowered with those entries *bound*: the
caller writes their current rows into the runtime context, and each
generated evaluator reads a bound slot once per call, in its prelude.
The row engine is the reference (``run(sql, executor_mode="row")``)
that ``tests/test_executor_equivalence.py`` holds this engine to.

Layout of a generated evaluator for ``o_totalprice > 100 AND o_status =
'F'`` over entry 0 (``_c0`` is the bound constant 100)::

    def _eval(_b):
        _col_0 = _b.columns[0]
        _out = []
        _ap = _out.append
        for _r0 in _col_0:
            _t0 = _r0[3] if _r0 is not None else None
            if _t0 is None:
                _t1 = None
            else:
                _t1 = (_t0 > _c0)
            if _t1 is not True:
                _t2 = False
            else:
                ...
            _ap(_t2)
        return _out

One function call per batch, zero per-row interpreter dispatch.  A bare
column read compiles to a single list comprehension.  A bound entry
``e`` adds two prelude lines, ``_ctx = _host.current_runtime.ctx`` and
``_r{e} = _ctx[e]``, and leaves the row loop.  ``+`` and ``-``
are emitted inline when both operands are statically numeric
(:func:`repro.executor.expression.numeric_arithmetic`, the same
decision the row interpreter specialises on); a shape that may involve a
date or an interval keeps the shared ``arith_add`` / ``arith_sub``
helpers.

Governance checkpoint cadence: every batch an operator emits flows
through ``ExecutionRuntime.note_batch``, which doubles as the batch
engine's cooperative checkpoint — the per-statement
:class:`repro.governor.ExecutionGovernor` (deadline / cancellation) and
the ``mid_batch`` fault-injection site both hook there, so reaction
latency in batch mode is bounded by one batch (≤ ``BATCH_SIZE`` rows).
"""

from __future__ import annotations

import builtins
import types
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.executor.expression import (
    RAW_SCALARS,
    ExpressionCompiler,
    arith_add,
    arith_sub,
    cast_value,
    extract_value,
    like_regex,
    numeric_arithmetic,
)
from repro.sql import ast
from repro.sql.facts import mask_ids, scan_expr

#: Default rows per batch.  Big enough to amortise per-batch dispatch,
#: small enough to keep intermediate columns cache-resident.  The live
#: value is ``DatabaseConfig.batch_size``, carried per execution on the
#: runtime (``ExecutionRuntime.batch_size``); this module-level constant
#: is only the default for components constructed without one.
BATCH_SIZE = 1024


class RowBatch:
    """A columnar chunk of rows flowing between batch operators.

    ``columns`` maps a table-entry id to a list of that entry's current
    row tuples (``None`` for a null-extended outer-join row); every
    column has exactly ``length`` elements.  This mirrors the row
    engine's context array — slot *i* of the context becomes column *i*
    of the batch — so compiled expressions read the same shapes in both
    engines.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[int, list], length: int) -> None:
        self.columns = columns
        self.length = length

    def filter_true(self, mask: Sequence) -> "RowBatch":
        """Keep only rows whose mask value is exactly ``True`` (SQL
        filter semantics: NULL and FALSE both drop the row)."""
        kept = 0
        for value in mask:
            if value is True:
                kept += 1
        if kept == self.length:
            return self
        if kept == 0:
            return RowBatch({entry: [] for entry in self.columns}, 0)
        columns = {
            entry: [row for row, passed in zip(column, mask)
                    if passed is True]
            for entry, column in self.columns.items()}
        return RowBatch(columns, kept)

    def slice(self, start: int, stop: int) -> "RowBatch":
        if start == 0 and stop >= self.length:
            return self
        columns = {entry: column[start:stop]
                   for entry, column in self.columns.items()}
        return RowBatch(columns, max(0, min(stop, self.length) - start))


class BatchAccumulator:
    """Collects produced rows and flushes them as fixed-size batches.

    Rows are stored row-major (one tuple per row, aligned with
    ``entries``) so hot loops pay a single ``append`` per row; the
    column transpose happens once per flush through ``zip(*rows)`` at
    C speed.
    """

    __slots__ = ("entries", "rows", "batch_size")

    def __init__(self, entries: List[int],
                 batch_size: int = BATCH_SIZE) -> None:
        self.entries = entries
        self.rows: List[tuple] = []
        self.batch_size = batch_size

    def add_values(self, values: tuple) -> None:
        self.rows.append(values)

    @property
    def length(self) -> int:
        return len(self.rows)

    @property
    def full(self) -> bool:
        return len(self.rows) >= self.batch_size

    def flush(self) -> RowBatch:
        rows = self.rows
        self.rows = []
        if rows:
            transposed = zip(*rows)
            columns = {entry: list(column)
                       for entry, column in zip(self.entries, transposed)}
        else:
            columns = {entry: [] for entry in self.entries}
        return RowBatch(columns, len(rows))


#: A compiled batch expression: RowBatch -> list of values (length rows).
BatchExpr = Callable[[RowBatch], list]

#: Most generated sources the kernel cache holds.  One stream of the 99
#: TPC-DS statements generates about 260 distinct sources.
KERNEL_CACHE_CAPACITY = 4096

#: Generated source -> the code object of the ``_eval`` it defines.
#: Sources are literal-free (values are bound by name in each
#: evaluator's own globals, never inlined), so every expression of one
#: shape shares one ``compile()`` per process, whether or not a plan
#: that used it is still alive.  Insertion-ordered; the oldest source
#: is evicted first.
_KERNELS: Dict[str, types.CodeType] = {}


def _evaluator(source: str, env: Dict[str, object]) -> BatchExpr:
    """The ``_eval`` function ``source`` defines, over globals ``env``."""
    code = _KERNELS.get(source)
    if code is None:
        module: Dict[str, object] = {}
        exec(compile(source, "<batch-expr>", "exec"), module)
        code = module["_eval"].__code__
        if len(_KERNELS) >= KERNEL_CACHE_CAPACITY:
            del _KERNELS[next(iter(_KERNELS))]
        _KERNELS[source] = code
    env["__builtins__"] = builtins
    fn = types.FunctionType(code, env, "_eval")
    fn._batch_source = source  # debugging aid
    return fn


class _Emitter:
    """Accumulates generated statements with indentation tracking."""

    def __init__(self) -> None:
        self.lines: List[tuple] = []  # (indent level, text)
        self.level = 0

    def emit(self, text: str) -> None:
        self.lines.append((self.level, text))

    def indented(self) -> "_IndentBlock":
        return _IndentBlock(self)

    def render(self, base_indent: int) -> str:
        pad = " " * base_indent
        return "\n".join(pad + "    " * level + text
                         for level, text in self.lines)


class _IndentBlock:
    def __init__(self, emitter: _Emitter) -> None:
        self.emitter = emitter

    def __enter__(self):
        self.emitter.level += 1
        return self

    def __exit__(self, *exc):
        self.emitter.level -= 1
        return False


def _in_eval(value, candidates, negated):
    """Non-constant IN list semantics (mirrors the row interpreter)."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return False if negated else True
    if saw_null:
        return None
    return True if negated else False


def _like_dyn(value, pattern):
    """LIKE with a non-literal pattern (mirrors the row interpreter)."""
    if value is None or pattern is None:
        return None
    return like_regex(pattern).match(str(value)) is not None


_COMPARE_SOURCE = {
    ast.BinOp.EQ: "==",
    ast.BinOp.NE: "!=",
    ast.BinOp.LT: "<",
    ast.BinOp.LE: "<=",
    ast.BinOp.GT: ">",
    ast.BinOp.GE: ">=",
}


class BatchExpressionCompiler:
    """Lowers resolved expression trees into per-batch evaluators.

    Each ``compile`` call generates one Python function that evaluates
    the whole expression for every row of a batch in a single loop, with
    NULL propagation and three-valued logic emitted as inline statements
    (no per-row closure dispatch).  Constants and helper callables are
    bound into the function's globals.

    ``compiled_count`` tracks successful compilations for the
    ``exec.compiled_exprs`` metric.  ``subplan_host`` (the
    :class:`~repro.executor.executor.Executor`) serves subquery
    expressions, as it does for the row compiler, and holds the runtime
    whose context a bound entry is read from.
    """

    def __init__(self, subplan_host=None) -> None:
        self.compiled_count = 0
        self._subplan_host = subplan_host

    # -- public API -------------------------------------------------------------

    def compile(self, expr: ast.Expr,
                available: Optional[frozenset] = None,
                bound: frozenset = frozenset()) -> BatchExpr:
        """Compile one expression; ``available`` restricts which entry
        ids it may read from the batch (a batch holds only its operator
        subtree's columns) and ``bound`` which it may read, once per
        call, from the runtime context."""
        emitter = _Emitter()
        state = _GenState(available, bound)
        result = self._gen(expr, emitter, state)
        _check_reads(state)
        if isinstance(expr, ast.ColumnRef) \
                and not state.is_bound(expr.entry_id):
            fn = self._assemble_column(expr)
        else:
            fn = self._assemble(emitter, state, result)
        self.compiled_count += 1
        return fn

    def compile_many(self, exprs: Sequence[ast.Expr],
                     available: Optional[frozenset] = None,
                     bound: frozenset = frozenset()) -> List[BatchExpr]:
        return [self.compile(expr, available, bound) for expr in exprs]

    def compile_filter(self, conjuncts: Sequence[ast.Expr],
                       available: Optional[frozenset] = None,
                       bound: frozenset = frozenset()
                       ) -> Optional[BatchExpr]:
        """Compile a conjunct list into one strict True/False mask
        evaluator (NULL counts as not-passing, like the row engine's
        ``compile_filter``).  Returns ``None`` for an empty list."""
        if not conjuncts:
            return None
        emitter = _Emitter()
        state = _GenState(available, bound)
        out = state.temp()
        self._gen_conjunction(list(conjuncts), emitter, state, out)
        _check_reads(state)
        fn = self._assemble(emitter, state, out)
        self.compiled_count += 1
        return fn

    def _gen_conjunction(self, conjuncts: List[ast.Expr],
                         emitter: _Emitter, state: "_GenState",
                         out: str) -> None:
        head = self._gen(conjuncts[0], emitter, state)
        if len(conjuncts) == 1 and out != head:
            # A single conjunct's value is used as-is; the mask check
            # (`is True`) downstream handles NULL/False identically.
            emitter.emit(f"{out} = {head}")
            return
        if len(conjuncts) == 1:
            return
        emitter.emit(f"if {head} is not True:")
        with emitter.indented():
            emitter.emit(f"{out} = False")
        emitter.emit("else:")
        with emitter.indented():
            self._gen_conjunction(conjuncts[1:], emitter, state, out)

    # -- assembly -------------------------------------------------------------

    def _assemble(self, emitter: _Emitter, state: "_GenState",
                  result: str) -> BatchExpr:
        entries = sorted(e for e in state.entries if not state.is_bound(e))
        prelude = self._prelude(state)
        if entries:
            cols = "\n".join(f"    _col_{e} = _b.columns[{e}]"
                             for e in entries)
            row_vars = ", ".join(f"_r{e}" for e in entries)
            col_vars = ", ".join(f"_col_{e}" for e in entries)
            if len(entries) == 1:
                loop = f"    for {row_vars} in {col_vars}:"
            else:
                loop = f"    for {row_vars} in zip({col_vars}):"
            source = (
                "def _eval(_b):\n"
                f"{prelude}"
                f"{cols}\n"
                "    _out = []\n"
                "    _ap = _out.append\n"
                f"{loop}\n"
                f"{emitter.render(8)}\n"
                f"        _ap({result})\n"
                "    return _out\n")
        else:
            # Row-invariant expression: evaluate once, replicate — and
            # not at all for no rows, as the row engine would not (an
            # uncorrelated subquery would otherwise run).
            source = (
                "def _eval(_b):\n"
                "    if not _b.length:\n"
                "        return []\n"
                f"{prelude}"
                f"{emitter.render(4)}\n"
                f"    return [{result}] * _b.length\n")
        return _evaluator(source, dict(state.env))

    def _prelude(self, state: "_GenState") -> str:
        """Read each bound entry's row from the runtime context, once
        per call (the caller bound it before running the plan)."""
        bound = sorted(e for e in state.entries if state.is_bound(e))
        if not bound:
            return ""
        state.env["_host"] = self._subplan_host
        return "    _ctx = _host.current_runtime.ctx\n" + "".join(
            f"    _r{e} = _ctx[{e}]\n" for e in bound)

    @staticmethod
    def _assemble_column(expr: ast.ColumnRef) -> BatchExpr:
        """A bare column read (group keys, most aggregate arguments,
        projections) as one list comprehension over the entry column."""
        row = f"_r{expr.entry_id}"
        source = (
            "def _eval(_b):\n"
            f"    return [{row}[{expr.position}] if {row} is not None "
            f"else None for {row} in _b.columns[{expr.entry_id}]]\n")
        return _evaluator(source, {})

    # -- codegen dispatch -------------------------------------------------------------

    def _gen(self, expr: ast.Expr, emitter: _Emitter,
             state: "_GenState") -> str:
        method = getattr(self, "_gen_" + type(expr).__name__, None)
        if method is None:
            raise ExecutionError(
                f"cannot compile expression node {type(expr).__name__}")
        return method(expr, emitter, state)

    # -- leaves -------------------------------------------------------------

    def _gen_Literal(self, expr: ast.Literal, emitter, state) -> str:
        # Non-None literals bind as environment constants rather than
        # inline reprs: every atom the generated NULL guards test with
        # ``is`` is then a name, never a literal (and guards on consts
        # short-circuit correctly since only "None" is ever null).
        value = expr.value
        if value is None:
            return "None"
        return state.const(value)

    def _gen_IntervalLiteral(self, expr, emitter, state) -> str:
        return state.const(expr.interval)

    def _gen_ColumnRef(self, expr: ast.ColumnRef, emitter, state) -> str:
        if expr.entry_id is None or expr.position is None:
            raise ExecutionError(
                f"unresolved column reference {expr.display!r}")
        state.entries.add(expr.entry_id)
        out = state.temp()
        emitter.emit(f"{out} = _r{expr.entry_id}[{expr.position}] "
                     f"if _r{expr.entry_id} is not None else None")
        return out

    # -- logic, comparison, arithmetic --------------------------------------------

    def _gen_BinaryExpr(self, expr: ast.BinaryExpr, emitter, state) -> str:
        op = expr.op
        if op is ast.BinOp.AND:
            return self._gen_and(expr, emitter, state)
        if op is ast.BinOp.OR:
            return self._gen_or(expr, emitter, state)
        # Like the row interpreter, a NULL left operand yields NULL
        # without evaluating the right one (which may raise).
        left = self._gen(expr.left, emitter, state)
        out = state.temp()
        if left == "None":
            emitter.emit(f"{out} = None")
            return out
        if left in state.env:  # a bound constant is never NULL
            self._gen_binary_rest(expr, left, out, emitter, state)
            return out
        emitter.emit(f"if {left} is None:")
        with emitter.indented():
            emitter.emit(f"{out} = None")
        emitter.emit("else:")
        with emitter.indented():
            self._gen_binary_rest(expr, left, out, emitter, state)
        return out

    def _gen_binary_rest(self, expr: ast.BinaryExpr, left: str, out: str,
                         emitter, state) -> None:
        """The right operand and the operator of a comparison or
        arithmetic expression whose left operand is not NULL."""
        op = expr.op
        right = self._gen(expr.right, emitter, state)
        if op in _COMPARE_SOURCE:
            body = f"({left} {_COMPARE_SOURCE[op]} {right})"
        elif op is ast.BinOp.MUL:
            body = f"{left} * {right}"
        elif op is ast.BinOp.DIV:
            body = f"(None if {right} == 0 else {left} / {right})"
        elif op is ast.BinOp.MOD:
            body = f"(None if {right} == 0 else {left} % {right})"
        elif op is ast.BinOp.ADD and numeric_arithmetic(expr):
            body = f"{left} + {right}"
        elif op is ast.BinOp.SUB and numeric_arithmetic(expr):
            body = f"{left} - {right}"
        elif op is ast.BinOp.ADD:
            body = f"_arith_add({left}, {right})"
            state.env["_arith_add"] = arith_add
        elif op is ast.BinOp.SUB:
            body = f"_arith_sub({left}, {right})"
            state.env["_arith_sub"] = arith_sub
        else:
            raise ExecutionError(f"bad arithmetic operator {op}")
        emitter.emit(f"{out} = " + state.null_guarded(body, right))

    def _gen_and(self, expr: ast.BinaryExpr, emitter, state) -> str:
        left = self._gen(expr.left, emitter, state)
        out = state.temp()
        emitter.emit(f"if {left} is False:")
        with emitter.indented():
            emitter.emit(f"{out} = False")
        emitter.emit("else:")
        with emitter.indented():
            right = self._gen(expr.right, emitter, state)
            emitter.emit(f"if {right} is False:")
            with emitter.indented():
                emitter.emit(f"{out} = False")
            emitter.emit(f"elif {left} is None or {right} is None:")
            with emitter.indented():
                emitter.emit(f"{out} = None")
            emitter.emit("else:")
            with emitter.indented():
                emitter.emit(f"{out} = True")
        return out

    def _gen_or(self, expr: ast.BinaryExpr, emitter, state) -> str:
        left = self._gen(expr.left, emitter, state)
        out = state.temp()
        emitter.emit(f"if {left} is True:")
        with emitter.indented():
            emitter.emit(f"{out} = True")
        emitter.emit("else:")
        with emitter.indented():
            right = self._gen(expr.right, emitter, state)
            emitter.emit(f"if {right} is True:")
            with emitter.indented():
                emitter.emit(f"{out} = True")
            emitter.emit(f"elif {left} is None or {right} is None:")
            with emitter.indented():
                emitter.emit(f"{out} = None")
            emitter.emit("else:")
            with emitter.indented():
                emitter.emit(f"{out} = False")
        return out

    def _gen_NotExpr(self, expr: ast.NotExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        out = state.temp()
        emitter.emit(f"{out} = (not {operand}) "
                     f"if {operand} is not None else None")
        return out

    def _gen_NegExpr(self, expr: ast.NegExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        out = state.temp()
        emitter.emit(f"{out} = -{operand} "
                     f"if {operand} is not None else None")
        return out

    def _gen_IsNullExpr(self, expr: ast.IsNullExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        out = state.temp()
        test = "is not None" if expr.negated else "is None"
        emitter.emit(f"{out} = {operand} {test}")
        return out

    def _gen_BetweenExpr(self, expr: ast.BetweenExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        low = self._gen(expr.low, emitter, state)
        high = self._gen(expr.high, emitter, state)
        out = state.temp()
        check = f"{low} <= {operand} <= {high}"
        if expr.negated:
            check = f"not ({check})"
        emitter.emit(f"{out} = " + state.null_guarded(
            f"({check})", operand, low, high))
        return out

    def _gen_LikeExpr(self, expr: ast.LikeExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        out = state.temp()
        if isinstance(expr.pattern, ast.Literal) and \
                isinstance(expr.pattern.value, str):
            regex = state.const(like_regex(expr.pattern.value))
            check = f"{regex}.match(str({operand})) is not None"
            if expr.negated:
                check = f"not ({check})"
            emitter.emit(f"{out} = ({check}) "
                         f"if {operand} is not None else None")
            return out
        pattern = self._gen(expr.pattern, emitter, state)
        state.env["_like_dyn"] = _like_dyn
        emitter.emit(f"{out} = _like_dyn({operand}, {pattern})")
        if expr.negated:
            negated = state.temp()
            emitter.emit(f"{negated} = (not {out}) "
                         f"if {out} is not None else None")
            return negated
        return out

    def _gen_InListExpr(self, expr: ast.InListExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        out = state.temp()
        constant_items = all(isinstance(item, ast.Literal)
                             for item in expr.items)
        if constant_items:
            values = state.const(frozenset(
                item.value for item in expr.items
                if item.value is not None))
            has_null = any(item.value is None for item in expr.items)
            found = state.temp()
            emitter.emit(f"if {operand} is None:")
            with emitter.indented():
                emitter.emit(f"{out} = None")
            emitter.emit("else:")
            with emitter.indented():
                emitter.emit(f"{found} = {operand} in {values}")
                if has_null:
                    emitter.emit(f"if not {found}:")
                    with emitter.indented():
                        emitter.emit(f"{out} = None")
                    emitter.emit("else:")
                    with emitter.indented():
                        emitter.emit(f"{out} = "
                                     f"{'not ' if expr.negated else ''}"
                                     f"{found}")
                else:
                    emitter.emit(f"{out} = "
                                 f"{'not ' if expr.negated else ''}{found}")
            return out
        items = [self._gen(item, emitter, state) for item in expr.items]
        state.env["_in_eval"] = _in_eval
        candidates = ", ".join(items)
        emitter.emit(f"{out} = _in_eval({operand}, ({candidates},), "
                     f"{expr.negated})")
        return out

    def _gen_CaseExpr(self, expr: ast.CaseExpr, emitter, state) -> str:
        out = state.temp()

        def gen_branch(index: int) -> None:
            if index >= len(expr.whens):
                if expr.else_value is not None:
                    value = self._gen(expr.else_value, emitter, state)
                    emitter.emit(f"{out} = {value}")
                else:
                    emitter.emit(f"{out} = None")
                return
            condition, result = expr.whens[index]
            cond = self._gen(condition, emitter, state)
            emitter.emit(f"if {cond} is True:")
            with emitter.indented():
                value = self._gen(result, emitter, state)
                emitter.emit(f"{out} = {value}")
            emitter.emit("else:")
            with emitter.indented():
                gen_branch(index + 1)

        gen_branch(0)
        return out

    def _gen_GroupingCall(self, expr, emitter, state) -> str:
        # Plain GROUP BY never produces super-aggregate rows.
        return state.const(0)

    # -- functions -------------------------------------------------------------

    def _gen_FuncCall(self, expr: ast.FuncCall, emitter, state) -> str:
        name = expr.name
        if name in ("COALESCE", "IFNULL"):
            return self._gen_coalesce(expr.args, emitter, state)
        args = [self._gen(arg, emitter, state) for arg in expr.args]
        out = state.temp()
        if name.startswith("CAST_"):
            target = state.const(name[5:])
            state.env["_cast_value"] = cast_value
            body = f"_cast_value({target}, {args[0]})"
        elif name.startswith("EXTRACT_"):
            unit = state.const(name[8:])
            state.env["_extract_value"] = extract_value
            body = f"_extract_value({unit}, {args[0]})"
        else:
            raw = RAW_SCALARS.get(name)
            if raw is None:
                raise ExecutionError(f"unknown function {name!r}")
            fn = state.const(raw)
            body = f"{fn}({', '.join(args)})"
        if args:
            null_check = " or ".join(f"{arg} is None" for arg in args)
            emitter.emit(f"{out} = None if ({null_check}) else {body}")
        else:
            emitter.emit(f"{out} = {body}")
        return out

    def _gen_coalesce(self, args: List[ast.Expr], emitter, state) -> str:
        out = state.temp()

        def gen_chain(index: int) -> None:
            if index >= len(args):
                emitter.emit(f"{out} = None")
                return
            value = self._gen(args[index], emitter, state)
            emitter.emit(f"if {value} is not None:")
            with emitter.indented():
                emitter.emit(f"{out} = {value}")
            emitter.emit("else:")
            with emitter.indented():
                gen_chain(index + 1)

        gen_chain(0)
        return out

    # -- subquery expressions --------------------------------------------------------

    def _gen_subquery(self, expr, emitter, state) -> str:
        """A scalar / IN / EXISTS subquery expression as one call per row
        into its row-compiled closure, which keys the subquery cache and
        runs the body's batch plan.  The call first writes the row's
        value of every entry the expression reads — its own columns and
        its subquery blocks' correlation sources — into the runtime
        context; a bound entry is there already."""
        fn = ExpressionCompiler(self._subplan_host).compile(expr)
        reads = _row_reads(expr)
        state.entries.update(reads)
        entries = sorted(e for e in reads if not state.is_bound(e))
        call = state.const(_row_call(self._subplan_host, fn, entries))
        out = state.temp()
        rows = ", ".join(f"_r{e}" for e in entries)
        emitter.emit(f"{out} = {call}({rows})")
        return out

    _gen_ScalarSubquery = _gen_InSubqueryExpr = _gen_ExistsExpr = \
        _gen_subquery

    def _gen_AggCall(self, expr, emitter, state) -> str:
        raise ExecutionError(
            "aggregate call reached the batch expression compiler; plan "
            "refinement should have rewritten it")

    def _gen_WindowCall(self, expr, emitter, state) -> str:
        raise ExecutionError(
            "window call reached the batch expression compiler; plan "
            "refinement should have rewritten it")

    def _gen_Star(self, expr, emitter, state) -> str:
        raise ExecutionError("* must be expanded during resolution")


class _GenState:
    """Mutable per-compilation state: temps, consts, referenced entries,
    and which of them the batch holds (``available``, None for all) or
    the runtime context binds (``bound``)."""

    def __init__(self, available: Optional[frozenset] = None,
                 bound: frozenset = frozenset()) -> None:
        self.counter = 0
        self.env: Dict[str, object] = {}
        self.entries: set = set()
        self.available = available
        self.bound = bound

    def is_bound(self, entry: int) -> bool:
        """Whether ``entry`` is read from the context, not the batch."""
        return self.available is not None \
            and entry not in self.available and entry in self.bound

    def temp(self) -> str:
        name = f"_t{self.counter}"
        self.counter += 1
        return name

    def const(self, value) -> str:
        name = f"_c{len(self.env)}"
        self.env[name] = value
        return name

    def null_guarded(self, body: str, *operands: str) -> str:
        """``body`` under SQL NULL propagation: NULL when any operand is.
        Bound constants are never NULL (a NULL literal is the bare
        ``None``), so only the other operands are tested."""
        tested = [name for name in operands if name not in self.env]
        if not tested:
            return body
        test = " and ".join(f"{name} is not None" for name in tested)
        return f"{body} if ({test}) else None"


def _check_reads(state: _GenState) -> None:
    """A batch holds only its operator subtree's columns: a read outside
    them that is not bound is a plan-building bug, as an unresolved
    column is."""
    if state.available is None:
        return
    missing = sorted(state.entries - state.available - state.bound)
    if missing:
        raise ExecutionError(
            f"expression reads entries {missing} outside its operator "
            f"subtree")


def _row_reads(expr: ast.Expr) -> set:
    """Entry ids a row evaluation of ``expr`` reads from the context:
    its columns plus its subquery blocks' correlation sources (which
    also covers references from subqueries nested inside those)."""
    reads, __, __, blocks = scan_expr(expr)
    for block in blocks:
        reads |= block.facts.corr_mask
    return set(mask_ids(reads))


def _row_call(host, fn, entries: List[int]) -> Callable:
    """``fn``, a row-compiled expression, as a call on one batch row's
    ``entries`` values, which it writes into the in-flight runtime's
    context first."""
    def call(*rows):
        ctx = host.current_runtime.ctx
        for entry, row in zip(entries, rows):
            ctx[entry] = row
        return fn(ctx)

    return call


# ---------------------------------------------------------------------------
# Plan lowering
# ---------------------------------------------------------------------------

def lower_executor(executor) -> int:
    """Lower every block plan of a statement for batch execution.

    Walks the top plan, then every other registered block plan (the
    subquery bodies), and the sub-plans reachable through plan nodes
    (derived tables, CTEs, UNION parts), attaching compiled batch
    expressions (``bx_*`` attributes) to each node.  A body is lowered
    with its correlation sources bound.  A nested-loop join whose inner
    side is an index lookup keyed on outer entries becomes a batched
    probe (:func:`_lower_probe`); any other inner side is lowered with
    the outer entries bound, and re-runs per outer row.

    Returns the number of expressions compiled.
    """
    compiler = BatchExpressionCompiler(executor)
    seen: set = set()
    _lower_query_plan(executor.top_plan, compiler, seen, frozenset())
    for plan in executor.block_plans():
        _lower_query_plan(plan, compiler, seen,
                          frozenset(plan.block.facts.corr))
    return compiler.compiled_count


def _lower_query_plan(plan, compiler: BatchExpressionCompiler,
                      seen: set, bound: frozenset) -> None:
    if id(plan) in seen:
        return
    seen.add(id(plan))
    if plan.root is not None:
        _lower_node(plan.root, compiler, seen, bound)
        available = frozenset(plan.root.produced_entries())
    else:
        available = frozenset()
    plan.bx_select = compiler.compile_many(plan.select_exprs, available,
                                           bound)
    for __, part in plan.union_parts:
        _lower_query_plan(part, compiler, seen, bound)


def _lower_node(node, compiler: BatchExpressionCompiler,
                seen: set, bound: frozenset) -> None:
    from repro.executor import plan as p

    if id(node) in seen:
        return
    seen.add(id(node))

    if isinstance(node, (p.WindowNode, p.LimitNode)):
        # The window kernel evaluates its row-compiled specs over the
        # buffered rows; a limit evaluates nothing.
        _lower_node(node.child, compiler, seen, bound)
        return

    if isinstance(node, p.NestedLoopJoinNode):
        # The outer side runs batched.  An index-lookup inner keyed on
        # outer entries is probed a whole outer batch at a time; any
        # other inner re-runs per outer row with the outer entries
        # bound, and the join's condition and filter are evaluated over
        # its batches with them bound too.
        _lower_node(node.outer, compiler, seen, bound)
        if _lower_probe(node, compiler, bound):
            return
        rebound = bound | frozenset(node.outer.produced_entries())
        _lower_node(node.inner, compiler, seen, rebound)
        inner = frozenset(node.inner.produced_entries())
        node.bx_condition = compiler.compile_filter(node.conjuncts, inner,
                                                    rebound)
        node.bx_filter = compiler.compile_filter(node.filter_conjuncts,
                                                 inner, rebound)
        return

    if isinstance(node, p.HashJoinNode):
        _lower_node(node.probe, compiler, seen, bound)
        _lower_node(node.build, compiler, seen, bound)
        probe_avail = frozenset(node.probe.produced_entries())
        build_avail = frozenset(node.build.produced_entries())
        node.bx_probe_keys = compiler.compile_many(
            node.probe_key_exprs, probe_avail, bound)
        node.bx_build_keys = compiler.compile_many(
            node.build_key_exprs, build_avail, bound)
        available = probe_avail | build_avail
        # Residual conjuncts are evaluated per candidate pair through the
        # row interpreter (rare); only validate what the batch reads.
        node.bx_filter = compiler.compile_filter(
            node.filter_conjuncts, available, bound)
        return

    # Sort/aggregate/filter/limit nodes never apply the attached
    # ``filter_fn`` in the row engine, so no ``bx_filter`` is compiled
    # for them — parity means ignoring the same things.

    if isinstance(node, p.FilterNode):
        _lower_node(node.child, compiler, seen, bound)
        available = frozenset(node.produced_entries())
        node.bx_condition = compiler.compile_filter(
            node.conjuncts, available, bound)
        return

    if isinstance(node, p.SortNode):
        _lower_node(node.child, compiler, seen, bound)
        available = frozenset(node.child.produced_entries())
        node.bx_keys = compiler.compile_many(
            [item.expr for item in node.order_items], available, bound)
        return

    if isinstance(node, p.AggregateNode):
        if node.child is not None:
            _lower_node(node.child, compiler, seen, bound)
            available = frozenset(node.child.produced_entries())
        else:
            available = frozenset()
        node.bx_group = compiler.compile_many(node.group_exprs, available,
                                              bound)
        node.bx_args = [
            compiler.compile(spec.arg_expr, available, bound)
            if spec.arg_expr is not None and not spec.star else None
            for spec in node.specs]
        return

    if isinstance(node, (p.DerivedMaterializeNode, p.CteScanNode)):
        # A correlated derived table reads bound entries: the outer
        # entries of the nested loop it is the inner of, or the
        # correlation sources of the body it drives.
        _lower_query_plan(node.subplan, compiler, seen, bound)
        node.bx_filter = compiler.compile_filter(
            node.filter_conjuncts, frozenset({node.entry_id}), bound)
        return

    if isinstance(node, p.IndexLookupNode):
        # A chain driver, or a nested-loop inner that is not a batched
        # probe: its keys read no batch, only bound entries.
        node.bx_keys = compiler.compile_many(node.key_exprs, frozenset(),
                                             bound)
        node.bx_filter = compiler.compile_filter(
            node.filter_conjuncts, frozenset({node.entry_id}), bound)
        return

    if isinstance(node, (p.TableScanNode, p.IndexRangeScanNode,
                         p.IndexOrderedScanNode)):
        node.bx_filter = compiler.compile_filter(
            node.filter_conjuncts, frozenset({node.entry_id}), bound)
        return

    raise ExecutionError(
        f"no batch lowering for plan node {type(node).__name__}")


def _lower_probe(node, compiler: BatchExpressionCompiler,
                 bound: frozenset) -> bool:
    """Make a nested-loop join a batched index probe when its inner side
    is an index lookup whose keys read only outer (or bound) entries and
    whose predicates read only the joined (or bound) entries.  Returns
    whether it did."""
    from repro.executor import plan as p

    inner = node.inner
    if not isinstance(inner, p.IndexLookupNode) or not inner.key_exprs:
        return False
    outer = frozenset(node.outer.produced_entries())
    joined = outer | {inner.entry_id}
    predicates = inner.filter_conjuncts + node.conjuncts \
        + node.filter_conjuncts
    if any(not _row_reads(key) <= outer | bound for key in inner.key_exprs) \
            or any(not _row_reads(predicate) <= joined | bound
                   for predicate in predicates):
        return False
    inner.bx_keys = compiler.compile_many(inner.key_exprs, outer, bound)
    inner.bx_filter = compiler.compile_filter(inner.filter_conjuncts, joined,
                                              bound)
    node.bx_condition = compiler.compile_filter(node.conjuncts, joined, bound)
    node.bx_filter = compiler.compile_filter(node.filter_conjuncts, joined,
                                             bound)
    node.bx_probe = True
    return True
