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

Each operator input list is one generated evaluator
(:meth:`BatchExpressionCompiler.compile_columns`): an aggregate's group
keys and arguments, a sort's keys, a hash join's probe or build keys,
an index lookup's keys and a plan's projection each run as one loop
that returns one value list per expression.  Each conjunct list is one
strict mask (:meth:`BatchExpressionCompiler.compile_filter`): a node's
filter, and a join's condition over its candidate pairs (a nested
loop's join conjuncts, a hash join's residual conjuncts).  Layout of
the evaluator for TPC-H Q1's aggregate inputs over ``lineitem`` (entry
0; ``_c0`` is the bound constant 1), whose columns are all NOT NULL::

    def _eval(_b):
        _col_0 = _b.columns[0]
        _o0 = []
        _a0 = _o0.append
        ...
        for _r0 in _col_0:
            _t0 = _r0[8]
            _t1 = _r0[9]
            _t2 = _r0[4]
            _t3 = _r0[5]
            _t6 = _r0[6]
            _t9 = _r0[7]
            _t5 = _c0 - _t6
            _t4 = _t3 * _t5
            _t8 = _c0 + _t9
            _t7 = _t4 * _t8
            _a0(_t0)
            ...
            _a5(_t7)
            _a6(_t6)
        return [_o0, _o1, _o2, _o3, _o4, _o5, _o2, _o3, _o6]

One function call per batch, zero per-row interpreter dispatch, and
each ``(entry, position)`` slot read once per row, at the top of the
loop body.  ``l_extendedprice * (1 - l_discount)`` appears twice in
Q1 and is computed once (``_t4``): a pure subexpression is shared when
its first evaluation dominates the reuse — it ran at the top level of
the loop, not inside an AND/OR/CASE/COALESCE branch or behind a NULL
guard — and it holds no subquery.  ``SUM(l_quantity)`` and
``AVG(l_quantity)`` share one list.  An all-bare-column list compiles
to one list comprehension per column.

A read carries no NULL guard here because lowering proves it
(:class:`_Lowering`): the entry is a base table's, read from the batch,
not NULL-extended by a LEFT or ANTI join below the operator (the inner
side of a nested loop, the build side of a hash join), and the schema
declares the column NOT NULL (``db.load`` and DML refuse a NULL there).
Any other read is ``_r0[5] if _r0 is not None else None``, and every
operator over a value that may be NULL tests it, three-valued logic
spelled out inline.  Filter masks are strict ``True``/``False``, so
:meth:`RowBatch.filter_true` keeps rows with ``compress``.  A bound
entry ``e`` adds two prelude lines, ``_ctx = _host.current_runtime.ctx``
and ``_r{e} = _ctx[e]``, and its column reads, and leaves the row loop.
``+`` and ``-`` are emitted inline when both operands are statically
numeric (:func:`repro.executor.expression.numeric_arithmetic`, the
same decision the row interpreter specialises on); a shape that may
involve a date or an interval keeps the shared ``arith_add`` /
``arith_sub`` helpers.

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
from itertools import compress
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

    def filter_true(self, mask: list) -> "RowBatch":
        """Keep only rows whose mask value is ``True``.  ``mask`` is a
        strict mask (:meth:`BatchExpressionCompiler.compile_filter`):
        ``True`` or ``False`` only, a NULL having counted as not
        passing, so ``compress`` keeps exactly the rows ``is True``
        would."""
        kept = mask.count(True)
        if kept == self.length:
            return self
        if kept == 0:
            return RowBatch({entry: [] for entry in self.columns}, 0)
        columns = {entry: list(compress(column, mask))
                   for entry, column in self.columns.items()}
        return RowBatch(columns, kept)

    def slice(self, start: int, stop: int) -> "RowBatch":
        if start == 0 and stop >= self.length:
            return self
        columns = {entry: column[start:stop]
                   for entry, column in self.columns.items()}
        return RowBatch(columns, max(0, min(stop, self.length) - start))


#: A compiled batch expression: RowBatch -> list of values (length rows).
BatchExpr = Callable[[RowBatch], list]

#: A compiled operator input list: RowBatch -> one value list per
#: expression.
BatchColumns = Callable[[RowBatch], List[list]]

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

    def render(self, indent: int) -> List[str]:
        """The lines, ``indent`` levels deeper than emitted."""
        return ["    " * (indent + level) + text
                for level, text in self.lines]


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
    """Lowers resolved expression lists into per-batch evaluators.

    One evaluator per operator input list: :meth:`compile_columns`
    generates a single Python function that evaluates every expression
    of the list — an aggregate's group keys and arguments, a sort's
    keys, a join's keys, a projection — for each row of a batch in one
    loop, and returns one value list per expression.  NULL propagation
    and three-valued logic are emitted as inline statements (no per-row
    closure dispatch); constants and helper callables are bound into the
    function's globals.

    Within one evaluator each ``(entry, position)`` slot is read once
    per row, at the top of the loop body, and a repeated pure
    subexpression is computed once per row when its first evaluation
    dominates the reuse: it ran unconditionally, not inside an
    AND/OR/CASE/COALESCE branch or behind a NULL guard, and it holds no
    subquery.  A read needs no NULL guard when the caller proves it
    (``nonnull``, from the plan's nullability facts), and then neither
    does any operator over it.

    ``compiled_count`` counts compiled expressions (a filter's conjunct
    list counts once) for the ``exec.compiled_exprs`` metric.
    ``subplan_host`` (the :class:`~repro.executor.executor.Executor`)
    serves subquery expressions, as it does for the row compiler, and
    holds the runtime whose context a bound entry is read from.

    Every entry point takes ``available``, the entries the batch holds
    (its operator subtree's; ``None`` for all), ``bound``, the entries
    read once per call from the runtime context, and ``nonnull``, a map
    from each batch entry whose rows are never a NULL extension to the
    positions its table declares NOT NULL.
    """

    def __init__(self, subplan_host=None) -> None:
        self.compiled_count = 0
        self._subplan_host = subplan_host

    # -- public API -------------------------------------------------------------

    def compile(self, expr: ast.Expr,
                available: Optional[frozenset] = None,
                bound: frozenset = frozenset(),
                nonnull: Optional[Dict[int, frozenset]] = None
                ) -> BatchExpr:
        """One expression's evaluator: RowBatch -> its value list."""
        return self._kernel([expr], available, bound, nonnull, single=True)

    def compile_columns(self, exprs: Sequence[ast.Expr],
                        available: Optional[frozenset] = None,
                        bound: frozenset = frozenset(),
                        nonnull: Optional[Dict[int, frozenset]] = None
                        ) -> BatchColumns:
        """One evaluator for an operator's whole input list: RowBatch ->
        one value list per expression.  Its ``nonnull`` attribute says,
        per expression, whether its values are proven never NULL."""
        return self._kernel(list(exprs), available, bound, nonnull,
                            single=False)

    def compile_filter(self, conjuncts: Sequence[ast.Expr],
                       available: Optional[frozenset] = None,
                       bound: frozenset = frozenset(),
                       nonnull: Optional[Dict[int, frozenset]] = None
                       ) -> Optional[BatchExpr]:
        """Compile a conjunct list into one strict mask evaluator: each
        value is ``True`` or ``False``, never NULL (NULL counts as not
        passing, like the row engine's ``compile_filter``), so
        :meth:`RowBatch.filter_true` can ``compress`` by it.  Returns
        ``None`` for an empty list."""
        if not conjuncts:
            return None
        state = _GenState(available, bound, nonnull)
        body = _Emitter()
        result = self._gen_conjunction(list(conjuncts), body, state)
        _check_reads(state)
        self.compiled_count += 1
        return self._assemble(state, _Emitter(), body, [(result, False)],
                              single=True)

    def _kernel(self, exprs: List[ast.Expr], available, bound, nonnull,
                single: bool):
        state = _GenState(available, bound, nonnull)
        self.compiled_count += len(exprs)
        if exprs and all(isinstance(expr, ast.ColumnRef)
                         and expr.entry_id is not None
                         and not state.is_bound(expr.entry_id)
                         for expr in exprs):
            return self._assemble_columns(exprs, state, single)
        invariant = [state.invariant(expr) for expr in exprs]
        pre, body = _Emitter(), _Emitter()
        results: Dict[int, str] = {}
        # Row-invariant expressions first: they run once, before the
        # row loop, so the loop may reuse what they compute — never the
        # reverse.
        for once, emitter in ((True, pre), (False, body)):
            for index, expr in enumerate(exprs):
                if invariant[index] is once:
                    results[index] = self._gen(expr, emitter, state)
        _check_reads(state)
        return self._assemble(
            state, pre, body,
            [(results[index], invariant[index])
             for index in range(len(exprs))], single)

    def _gen_conjunction(self, conjuncts: List[ast.Expr],
                         emitter: _Emitter, state: "_GenState") -> str:
        """The temp holding the conjunction's strict True/False value;
        each conjunct after the first runs only while all before it
        passed."""
        head = self._gen(conjuncts[0], emitter, state)
        if len(conjuncts) == 1:
            return state.strict(head, emitter)
        out = state.temp()

        def chain(index: int, value: str) -> None:
            if index == len(conjuncts):
                emitter.emit(f"{out} = {state.strict_text(value)}")
                return
            emitter.emit(f"if {value} is not True:")
            with emitter.indented():
                emitter.emit(f"{out} = False")
            emitter.emit("else:")
            with emitter.indented():
                chain(index + 1, self._gen(conjuncts[index], emitter, state))

        chain(1, head)
        state.mark(out, boolean=True)
        return out

    # -- assembly -------------------------------------------------------------

    def _assemble(self, state: "_GenState", pre: _Emitter, body: _Emitter,
                  outputs: List[tuple], single: bool):
        """``outputs`` are ``(temp, row_invariant)`` pairs, in order.  An
        invariant output is computed once per call (``pre``) and
        replicated — and not at all for no rows, as the row engine would
        not (an uncorrelated subquery would otherwise run).  The others
        are appended per row of the loop (``body``), one list per
        distinct temp."""
        entries = sorted(e for e in state.entries if not state.is_bound(e))
        if not entries:
            # Nothing is read from the batch (a filter over bound entries
            # only, or ``NULL * x``, which never reads ``x``): every
            # output is row-invariant.
            pre.lines += body.lines
            outputs = [(temp, True) for temp, __ in outputs]
        lines = ["def _eval(_b):"]
        if any(once for __, once in outputs):
            empty = "[]" if single else \
                "[" + ", ".join("[]" for __ in outputs) + "]"
            lines += ["    if not _b.length:", f"        return {empty}"]
        lines += self._prelude(state)
        lines += pre.render(1)
        lists: Dict[str, int] = {}
        for temp, once in outputs:
            if not once and temp not in lists:
                lists[temp] = len(lists)
        if lists:
            lines += [f"    _col_{e} = _b.columns[{e}]" for e in entries]
            for k in lists.values():
                lines += [f"    _o{k} = []", f"    _a{k} = _o{k}.append"]
            row_vars = ", ".join(f"_r{e}" for e in entries)
            col_vars = ", ".join(f"_col_{e}" for e in entries)
            if len(entries) == 1:
                lines.append(f"    for {row_vars} in {col_vars}:")
            else:
                lines.append(f"    for {row_vars} in zip({col_vars}):")
            lines += [f"        {line}" for line in state.row_reads]
            lines += body.render(2)
            lines += [f"        _a{k}({temp})" for temp, k in lists.items()]
        columns = [f"[{temp}] * _b.length" if once else f"_o{lists[temp]}"
                   for temp, once in outputs]
        lines.append("    return " + (columns[0] if single
                                      else "[" + ", ".join(columns) + "]"))
        fn = _evaluator("\n".join(lines) + "\n", dict(state.env))
        fn.nonnull = tuple(state.never_null(temp) for temp, __ in outputs)
        return fn

    def _prelude(self, state: "_GenState") -> List[str]:
        """Read each bound entry's row from the runtime context, and its
        columns from the row, once per call (the caller bound it before
        running the plan)."""
        bound = sorted(e for e in state.entries if state.is_bound(e))
        if not bound:
            return []
        state.env["_host"] = self._subplan_host
        return ["    _ctx = _host.current_runtime.ctx"] \
            + [f"    _r{e} = _ctx[{e}]" for e in bound] \
            + [f"    {line}" for line in state.bound_reads]

    @staticmethod
    def _assemble_columns(exprs: List[ast.ColumnRef], state: "_GenState",
                          single: bool):
        """Bare column reads, one list comprehension per distinct column
        over its entry column (for bare reads that beats one loop with
        an append per column)."""
        comprehensions: Dict[tuple, str] = {}
        for expr in exprs:
            entry, position = expr.entry_id, expr.position
            if position is None:
                raise ExecutionError(
                    f"unresolved column reference {expr.display!r}")
            state.entries.add(entry)
            if (entry, position) not in comprehensions:
                row = f"_r{entry}"
                value = f"{row}[{position}]" \
                    if state.proven(entry, position) \
                    else f"{row}[{position}] if {row} is not None else None"
                comprehensions[(entry, position)] = \
                    f"[{value} for {row} in _b.columns[{entry}]]"
        _check_reads(state)
        if len(exprs) == 1:
            (values,) = comprehensions.values()
            body = f"    return {values if single else f'[{values}]'}\n"
        else:
            names = {key: f"_o{k}" for k, key in enumerate(comprehensions)}
            body = "".join(f"    {names[key]} = {values}\n"
                           for key, values in comprehensions.items())
            body += "    return [" + ", ".join(
                names[(expr.entry_id, expr.position)] for expr in exprs) \
                + "]\n"
        fn = _evaluator("def _eval(_b):\n" + body, {})
        fn.nonnull = tuple(state.proven(expr.entry_id, expr.position)
                           for expr in exprs)
        return fn

    # -- codegen dispatch -------------------------------------------------------------

    def _gen(self, expr: ast.Expr, emitter: _Emitter,
             state: "_GenState") -> str:
        # A column read is shared by ``_GenState.read`` already.
        key = None if isinstance(expr, ast.ColumnRef) \
            else share_key(expr, state.keys)
        if key is not None:
            shared = state.shared.get(key)
            if shared is not None:
                return shared
        method = getattr(self, "_gen_" + type(expr).__name__, None)
        if method is None:
            raise ExecutionError(
                f"cannot compile expression node {type(expr).__name__}")
        out = method(expr, emitter, state)
        # Shared only where it dominates every later use: evaluated at
        # the top level of the loop body (or of the once-per-call part),
        # not inside a branch or behind a NULL guard.
        if key is not None and emitter.level == 0 and out != "None":
            state.shared[key] = out
        return out

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
        return state.read(expr.entry_id, expr.position)

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
        if state.never_null(left):
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
        total = True  # never NULL for non-NULL operands
        if op in _COMPARE_SOURCE:
            body = f"({left} {_COMPARE_SOURCE[op]} {right})"
        elif op is ast.BinOp.MUL:
            body = f"{left} * {right}"
            total = numeric_arithmetic(expr)
        elif op is ast.BinOp.DIV:
            body = f"(None if {right} == 0 else {left} / {right})"
            total = False
        elif op is ast.BinOp.MOD:
            body = f"(None if {right} == 0 else {left} % {right})"
            total = False
        elif op is ast.BinOp.ADD and numeric_arithmetic(expr):
            body = f"{left} + {right}"
        elif op is ast.BinOp.SUB and numeric_arithmetic(expr):
            body = f"{left} - {right}"
        elif op is ast.BinOp.ADD:
            body = f"_arith_add({left}, {right})"
            state.env["_arith_add"] = arith_add
            total = False
        elif op is ast.BinOp.SUB:
            body = f"_arith_sub({left}, {right})"
            state.env["_arith_sub"] = arith_sub
            total = False
        else:
            raise ExecutionError(f"bad arithmetic operator {op}")
        emitter.emit(f"{out} = " + state.null_guarded(body, right))
        state.mark(out, boolean=op in _COMPARE_SOURCE,
                   proven=total and state.never_null(left, right))

    def _gen_and(self, expr: ast.BinaryExpr, emitter, state) -> str:
        return self._gen_logic(expr, emitter, state, "False", "True")

    def _gen_or(self, expr: ast.BinaryExpr, emitter, state) -> str:
        return self._gen_logic(expr, emitter, state, "True", "False")

    def _gen_logic(self, expr: ast.BinaryExpr, emitter, state,
                   decisive: str, otherwise: str) -> str:
        """AND (``decisive`` False) or OR (``decisive`` True) under
        three-valued logic; the right operand runs only when the left
        one does not decide."""
        left = self._gen(expr.left, emitter, state)
        out = state.temp()
        emitter.emit(f"if {left} is {decisive}:")
        with emitter.indented():
            emitter.emit(f"{out} = {decisive}")
        emitter.emit("else:")
        with emitter.indented():
            right = self._gen(expr.right, emitter, state)
            emitter.emit(f"if {right} is {decisive}:")
            with emitter.indented():
                emitter.emit(f"{out} = {decisive}")
            nullable = [name for name in (left, right)
                        if not state.never_null(name)]
            if nullable:
                test = " or ".join(f"{name} is None" for name in nullable)
                emitter.emit(f"elif {test}:")
                with emitter.indented():
                    emitter.emit(f"{out} = None")
            emitter.emit("else:")
            with emitter.indented():
                emitter.emit(f"{out} = {otherwise}")
        state.mark(out, boolean=True, proven=not nullable)
        return out

    def _gen_NotExpr(self, expr: ast.NotExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        out = state.temp()
        emitter.emit(f"{out} = " + state.null_guarded(f"(not {operand})",
                                                      operand))
        state.mark(out, boolean=True, proven=state.never_null(operand))
        return out

    def _gen_NegExpr(self, expr: ast.NegExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        out = state.temp()
        emitter.emit(f"{out} = " + state.null_guarded(f"-{operand}",
                                                      operand))
        state.mark(out, proven=state.never_null(operand))
        return out

    def _gen_IsNullExpr(self, expr: ast.IsNullExpr, emitter, state) -> str:
        operand = self._gen(expr.operand, emitter, state)
        out = state.temp()
        test = "is not None" if expr.negated else "is None"
        emitter.emit(f"{out} = {operand} {test}")
        state.mark(out, boolean=True, proven=True)
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
        state.mark(out, boolean=True,
                   proven=state.never_null(operand, low, high))
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
            emitter.emit(f"{out} = " + state.null_guarded(f"({check})",
                                                          operand))
            state.mark(out, boolean=True, proven=state.never_null(operand))
            return out
        pattern = self._gen(expr.pattern, emitter, state)
        state.env["_like_dyn"] = _like_dyn
        emitter.emit(f"{out} = _like_dyn({operand}, {pattern})")
        state.mark(out, boolean=True)
        if expr.negated:
            negated = state.temp()
            emitter.emit(f"{negated} = (not {out}) "
                         f"if {out} is not None else None")
            state.mark(negated, boolean=True)
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
            prefix = "not " if expr.negated else ""

            def gen_found() -> None:
                emitter.emit(f"{found} = {operand} in {values}")
                if not has_null:
                    emitter.emit(f"{out} = {prefix}{found}")
                    return
                emitter.emit(f"if not {found}:")
                with emitter.indented():
                    emitter.emit(f"{out} = None")
                emitter.emit("else:")
                with emitter.indented():
                    emitter.emit(f"{out} = {prefix}{found}")

            proven = state.never_null(operand)
            if proven:
                gen_found()
            else:
                emitter.emit(f"if {operand} is None:")
                with emitter.indented():
                    emitter.emit(f"{out} = None")
                emitter.emit("else:")
                with emitter.indented():
                    gen_found()
            state.mark(out, boolean=True, proven=proven and not has_null)
            return out
        items = [self._gen(item, emitter, state) for item in expr.items]
        state.env["_in_eval"] = _in_eval
        candidates = ", ".join(items)
        emitter.emit(f"{out} = _in_eval({operand}, ({candidates},), "
                     f"{expr.negated})")
        state.mark(out, boolean=True)
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
            if name not in RAW_SCALARS:
                raise ExecutionError(f"unknown function {name!r}")
            fn, strict = RAW_SCALARS[name]
            body = f"{state.const(fn)}({', '.join(args)})"
            if not strict:
                emitter.emit(f"{out} = {body}")
                return out
        nullable = [arg for arg in args if not state.never_null(arg)]
        if nullable:
            null_check = " or ".join(f"{arg} is None" for arg in nullable)
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
            if state.never_null(value):
                # Proven non-NULL: no later argument can be reached.
                emitter.emit(f"{out} = {value}")
                state.mark(out, proven=True)
                return
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


def share_key(expr: ast.Expr, memo: Dict[int, Optional[tuple]]
               ) -> Optional[tuple]:
    """A structural key under which ``expr``'s value may be computed once
    per row and reused, or ``None`` when it holds a subquery (or any node
    this does not know to be pure).  Literals are keyed by type and
    ``repr``, so ``0.0`` and ``-0.0`` (or ``1.0`` and ``1.00``) stay
    apart.  ``memo`` holds the keys already built, by node id."""
    if id(expr) in memo:
        return memo[id(expr)]
    memo[id(expr)] = key = _build_share_key(expr, memo)
    return key


def _build_share_key(expr: ast.Expr, memo: Dict[int, Optional[tuple]]
                     ) -> Optional[tuple]:
    kind = type(expr)
    if kind is ast.ColumnRef:
        return ("col", expr.entry_id, expr.position)
    if kind is ast.Literal:
        return ("lit", type(expr.value), repr(expr.value))
    if kind is ast.IntervalLiteral:
        return ("interval", repr(expr.interval))
    if kind is ast.BinaryExpr:
        head: tuple = (expr.op.value,)
    elif kind is ast.NotExpr or kind is ast.NegExpr:
        head = (kind,)
    elif kind in (ast.IsNullExpr, ast.BetweenExpr, ast.LikeExpr,
                  ast.InListExpr):
        head = (kind, expr.negated)
    elif kind is ast.FuncCall:
        head = (kind, expr.name)
    elif kind is ast.CaseExpr:
        head = (kind, len(expr.whens), expr.else_value is None)
    else:
        return None
    parts = []
    for child in expr.children():
        part = share_key(child, memo)
        if part is None:
            return None
        parts.append(part)
    return head + tuple(parts)


class _GenState:
    """Mutable per-evaluator state: temps, consts, referenced entries and
    which of them the batch holds (``available``, None for all) or the
    runtime context binds (``bound``); the per-row and once-per-call
    column reads; the temps proven never NULL or boolean; and the shared
    subexpressions."""

    def __init__(self, available: Optional[frozenset] = None,
                 bound: frozenset = frozenset(),
                 nonnull: Optional[Dict[int, frozenset]] = None) -> None:
        self.counter = 0
        self.env: Dict[str, object] = {}
        self.entries: set = set()
        self.available = available
        self.bound = bound
        self.nonnull = nonnull or {}
        #: Temps proven never NULL.
        self.proven_temps: set = set()
        #: Temps that hold True, False or NULL.
        self.boolean: set = set()
        #: Share key -> the temp that holds the value (see ``_gen``), and
        #: node id -> its share key.
        self.shared: Dict[tuple, str] = {}
        self.keys: Dict[int, Optional[tuple]] = {}
        #: Column reads at the top of the loop body / once per call.
        self.row_reads: List[str] = []
        self.bound_reads: List[str] = []
        self._reads: Dict[tuple, str] = {}

    def is_bound(self, entry: int) -> bool:
        """Whether ``entry`` is read from the context, not the batch."""
        return self.available is not None \
            and entry not in self.available and entry in self.bound

    def invariant(self, expr: ast.Expr) -> bool:
        """Whether ``expr`` reads no batch entry (so has one value per
        call)."""
        return all(map(self.is_bound, _row_reads(expr)))

    def proven(self, entry: int, position: int) -> bool:
        """Whether the batch's ``(entry, position)`` values are never
        NULL: a batch entry whose rows are never a NULL extension, and a
        column its table declares NOT NULL."""
        return not self.is_bound(entry) \
            and position in self.nonnull.get(entry, ())

    def read(self, entry: int, position: int) -> str:
        """The temp holding the row's ``(entry, position)`` value; the
        read is emitted once per evaluator."""
        key = (entry, position)
        temp = self._reads.get(key)
        if temp is not None:
            return temp
        self.entries.add(entry)
        temp = self._reads[key] = self.temp()
        row = f"_r{entry}"
        if self.proven(entry, position):
            line = f"{temp} = {row}[{position}]"
            self.proven_temps.add(temp)
        else:
            line = f"{temp} = {row}[{position}] if {row} is not None " \
                "else None"
        (self.bound_reads if self.is_bound(entry)
         else self.row_reads).append(line)
        return temp

    def temp(self) -> str:
        name = f"_t{self.counter}"
        self.counter += 1
        return name

    def const(self, value) -> str:
        name = f"_c{len(self.env)}"
        self.env[name] = value
        return name

    def mark(self, temp: str, boolean: bool = False,
             proven: bool = False) -> None:
        if boolean:
            self.boolean.add(temp)
        if proven:
            self.proven_temps.add(temp)

    def never_null(self, *names: str) -> bool:
        """Whether every name is proven never NULL: a bound constant (a
        NULL literal is the bare ``None``) or a proven temp."""
        for name in names:
            if name not in self.env and name not in self.proven_temps:
                return False
        return True

    def strict_text(self, name: str) -> str:
        """``name`` as a strict True/False source expression."""
        if name in self.boolean and self.never_null(name):
            return name
        return f"{name} is True"

    def strict(self, name: str, emitter: _Emitter) -> str:
        """A temp holding ``name`` as strict True/False."""
        text = self.strict_text(name)
        if text == name:
            return name
        out = self.temp()
        emitter.emit(f"{out} = {text}")
        self.mark(out, boolean=True, proven=True)
        return out

    def null_guarded(self, body: str, *operands: str) -> str:
        """``body`` under SQL NULL propagation: NULL when any operand is.
        Operands proven never NULL are not tested."""
        tested = [name for name in operands if not self.never_null(name)]
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
    (derived tables, CTEs, UNION parts), attaching one compiled batch
    evaluator per operator input list (``bx_*`` attributes) to each
    node.  A body is lowered with its correlation sources bound.  A
    nested-loop join whose inner side is an index lookup keyed on outer
    entries becomes a batched probe (:meth:`_Lowering.probe`); any other
    inner side is lowered with the outer entries bound, and re-runs per
    outer row.

    Returns the number of expressions compiled.
    """
    lowering = _Lowering(executor)
    lowering.query_plan(executor.top_plan, frozenset())
    for plan in executor.block_plans():
        lowering.query_plan(plan, frozenset(plan.block.facts.corr))
    return lowering.compiler.compiled_count


def _keeps_inner(join) -> bool:
    """Whether a join's output keeps real rows of its inner (nested
    loop) or build (hash join) side; LEFT and ANTI joins null-extend
    it."""
    from repro.executor.plan import JoinKind

    return join.kind is JoinKind.INNER or join.kind is JoinKind.SEMI


class _Lowering:
    """One statement's batch lowering.

    Besides the compiler and the plans and nodes already lowered, it
    works out bottom-up which entries of each subtree's output are never
    NULL-extended: a base table's entry is, until a LEFT or ANTI join
    above it (the inner side of a nested loop, the build side of a hash
    join) pads it with NULL rows.  :meth:`node` returns these facts as
    ``{entry: positions its table declares NOT NULL}``; derived, CTE,
    aggregate and window entries never appear in them, and a bound
    entry is never read through them.  The compiler drops the NULL guard
    of exactly the reads they cover.
    """

    def __init__(self, executor) -> None:
        self.compiler = BatchExpressionCompiler(executor)
        self.storage = executor.storage
        self.plans: set = set()
        self.facts: Dict[int, Dict[int, frozenset]] = {}

    def query_plan(self, plan, bound: frozenset) -> None:
        if id(plan) in self.plans:
            return
        self.plans.add(id(plan))
        if plan.root is not None:
            facts = self.node(plan.root, bound)
            available = frozenset(plan.root.produced_entries())
        else:
            facts, available = {}, frozenset()
        plan.bx_select = self.compiler.compile_columns(
            plan.select_exprs, available, bound, facts)
        for __, part in plan.union_parts:
            self.query_plan(part, bound)

    def node(self, node, bound: frozenset) -> Dict[int, frozenset]:
        """Lower ``node``'s subtree once; its output's nullability
        facts."""
        facts = self.facts.get(id(node))
        if facts is None:
            facts = self.facts[id(node)] = self._lower(node, bound)
        return facts

    def leaf(self, node) -> Dict[int, frozenset]:
        """A base-table leaf's facts: its rows are never NULL."""
        schema = self.storage.store(node.table_name).schema
        return {node.entry_id: schema.not_null_positions()}

    def _lower(self, node, bound: frozenset) -> Dict[int, frozenset]:
        from repro.executor import plan as p

        compiler = self.compiler
        if isinstance(node, (p.WindowNode, p.LimitNode)):
            # The window kernel evaluates its row-compiled specs over the
            # buffered rows; a limit evaluates nothing.
            return self.node(node.child, bound)

        if isinstance(node, p.NestedLoopJoinNode):
            # The outer side runs batched.  An index-lookup inner keyed
            # on outer entries is probed a whole outer batch at a time;
            # any other inner re-runs per outer row with the outer
            # entries bound, and the join's condition and filter are
            # evaluated over its batches with them bound too.
            outer = self.node(node.outer, bound)
            keeps = _keeps_inner(node)
            inner = self.probe(node, outer, bound)
            if inner is not None:
                return {**outer, **inner} if keeps else outer
            rebound = bound | frozenset(node.outer.produced_entries())
            inner = self.node(node.inner, rebound)
            available = frozenset(node.inner.produced_entries())
            node.bx_condition = compiler.compile_filter(
                node.conjuncts, available, rebound, inner)
            node.bx_filter = compiler.compile_filter(
                node.filter_conjuncts, available, rebound,
                inner if keeps else {})
            return {**outer, **inner} if keeps else outer

        if isinstance(node, p.HashJoinNode):
            probe = self.node(node.probe, bound)
            build = self.node(node.build, bound)
            probe_avail = frozenset(node.probe.produced_entries())
            build_avail = frozenset(node.build.produced_entries())
            node.bx_probe_keys = compiler.compile_columns(
                node.probe_key_exprs, probe_avail, bound, probe)
            node.bx_build_keys = compiler.compile_columns(
                node.build_key_exprs, build_avail, bound, build)
            # Candidates pair real probe and build rows; the join's
            # output null-extends the build side of a LEFT or ANTI join.
            candidates = {**probe, **build}
            facts = candidates if _keeps_inner(node) else probe
            node.bx_condition = compiler.compile_filter(
                node.residual_conjuncts, probe_avail | build_avail, bound,
                candidates)
            node.bx_filter = compiler.compile_filter(
                node.filter_conjuncts, probe_avail | build_avail, bound,
                facts)
            return facts

        # Sort/aggregate/filter/limit nodes never apply the attached
        # ``filter_fn`` in the row engine, so no ``bx_filter`` is
        # compiled for them — parity means ignoring the same things.

        if isinstance(node, p.FilterNode):
            facts = self.node(node.child, bound)
            node.bx_condition = compiler.compile_filter(
                node.conjuncts, frozenset(node.produced_entries()), bound,
                facts)
            return facts

        if isinstance(node, p.SortNode):
            facts = self.node(node.child, bound)
            node.bx_keys = compiler.compile_columns(
                [item.expr for item in node.order_items],
                frozenset(node.child.produced_entries()), bound, facts)
            return facts

        if isinstance(node, p.AggregateNode):
            if node.child is not None:
                facts = self.node(node.child, bound)
                available = frozenset(node.child.produced_entries())
            else:
                facts, available = {}, frozenset()
            # Group keys, then each argument but COUNT(*)'s: one
            # evaluator, so a row is read once for all of them.
            slots: List[Optional[int]] = []
            args: List[ast.Expr] = []
            for spec in node.folds:
                if spec.arg_expr is not None and not spec.star:
                    slots.append(len(node.group_exprs) + len(args))
                    args.append(spec.arg_expr)
                else:
                    slots.append(None)
            node.bx_inputs = compiler.compile_columns(
                node.group_exprs + args, available, bound, facts)
            node.input_slots = slots
            node.proven_args = [slot is not None
                                and node.bx_inputs.nonnull[slot]
                                for slot in slots]
            return {}

        if isinstance(node, (p.DerivedMaterializeNode, p.CteScanNode)):
            # A correlated derived table reads bound entries: the outer
            # entries of the nested loop it is the inner of, or the
            # correlation sources of the body it drives.
            self.query_plan(node.subplan, bound)
            node.bx_filter = compiler.compile_filter(
                node.filter_conjuncts, frozenset({node.entry_id}), bound)
            return {}

        if isinstance(node, p.IndexLookupNode):
            # A chain driver, or a nested-loop inner that is not a
            # batched probe: its keys read no batch, only bound entries.
            facts = self.leaf(node)
            node.bx_keys = compiler.compile_columns(
                node.key_exprs, frozenset(), bound)
            node.bx_filter = compiler.compile_filter(
                node.filter_conjuncts, frozenset({node.entry_id}), bound,
                facts)
            return facts

        if isinstance(node, (p.TableScanNode, p.IndexRangeScanNode,
                             p.IndexOrderedScanNode)):
            facts = self.leaf(node)
            node.bx_filter = compiler.compile_filter(
                node.filter_conjuncts, frozenset({node.entry_id}), bound,
                facts)
            return facts

        raise ExecutionError(
            f"no batch lowering for plan node {type(node).__name__}")

    def probe(self, node, outer: Dict[int, frozenset],
              bound: frozenset) -> Optional[Dict[int, frozenset]]:
        """Make a nested-loop join a batched index probe when its inner
        side is an index lookup whose keys read only outer (or bound)
        entries and whose predicates read only the joined (or bound)
        entries.  Returns the inner leaf's facts if it did, else None."""
        from repro.executor import plan as p

        inner = node.inner
        if not isinstance(inner, p.IndexLookupNode) or not inner.key_exprs:
            return None
        outer_avail = frozenset(node.outer.produced_entries())
        joined = outer_avail | {inner.entry_id}
        predicates = inner.filter_conjuncts + node.conjuncts \
            + node.filter_conjuncts
        if any(not _row_reads(key) <= outer_avail | bound
               for key in inner.key_exprs) \
                or any(not _row_reads(predicate) <= joined | bound
                       for predicate in predicates):
            return None
        compiler = self.compiler
        leaf = self.leaf(inner)
        # Candidates pair real outer and inner rows; the join's output
        # null-extends the inner row of a LEFT or ANTI join.
        candidates = {**outer, **leaf}
        output = candidates if _keeps_inner(node) \
            else outer
        inner.bx_keys = compiler.compile_columns(inner.key_exprs,
                                                 outer_avail, bound, outer)
        inner.bx_filter = compiler.compile_filter(
            inner.filter_conjuncts, joined, bound, candidates)
        node.bx_condition = compiler.compile_filter(
            node.conjuncts, joined, bound, candidates)
        node.bx_filter = compiler.compile_filter(
            node.filter_conjuncts, joined, bound, output)
        node.bx_probe = True
        return leaf
