"""Expression trees for elementary functions of one real variable.

The grammar is deliberately small: constants, the single variable ``x``,
the four arithmetic operations, unary minus, powers with a *constant*
exponent, and sin/cos/exp/ln.  Restricting exponents to literal constants
keeps symbolic differentiation closed over the grammar, so arbitrarily
high derivatives are exact expression trees rather than finite-difference
estimates.

Expr values are immutable; every operation here is a pure function.
Nodes are hash-consed, so each distinct subexpression exists once
(Filliatre & Conchon, "Type-safe modular hash-consing", 2006).
"""

from __future__ import annotations

import math
import operator
import re
import struct
import threading
import weakref
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

# Node kinds.
CONST = "const"
VAR = "var"
ADD = "add"
SUB = "sub"
MUL = "mul"
DIV = "div"
NEG = "neg"
POW = "pow"
SIN = "sin"
COS = "cos"
EXP = "exp"
LN = "ln"

FUNC_KINDS = (SIN, COS, EXP, LN)


class ParseError(ValueError):
    """Raised on malformed expression text.

    Carries the code-unit offset of the offending token, a message, and a
    hint for what was expected there.
    """

    def __init__(self, offset: int, message: str, expected: str = ""):
        self.offset = offset
        self.message = message
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"parse error at offset {offset}: {message}{hint}")


class DomainError(ValueError):
    """Raised when evaluation leaves the mathematical domain.

    Names the offending subexpression and the input that triggered it.
    """

    def __init__(self, subexpression: str, x, reason: str):
        self.subexpression = subexpression
        self.x = x
        self.reason = reason
        super().__init__(f"domain violation in '{subexpression}' at x={x}: {reason}")


_DOUBLE_BITS = struct.Struct("<d").pack
_NODES: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class Expr:
    """One node of an expression DAG.

    ``value`` holds the constant for CONST nodes and the exponent for POW
    nodes; it is None everywhere else.  ``children`` holds 0-2 subtrees.
    Building (kind, children, value) returns the live node with that kind,
    child objects and bits of value, if any, so equality is identity while
    -0.0 and 0.0 stay distinct.  Node table, memos and tape hold nodes
    weakly, so a dropped expression is freed by reference counting alone.
    """

    __slots__ = ("kind", "children", "value", "_derivative", "_simplified",
                 "_tape", "__weakref__")

    def __new__(cls, kind: str, children: tuple["Expr", ...] = (),
                value: float | None = None) -> "Expr":
        key = (kind, children, None if value is None else _DOUBLE_BITS(value))
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = _NODES[key] = object.__new__(cls)
                for name, v in zip(cls.__slots__, (kind, children, value, None, None, None)):
                    object.__setattr__(node, name, v)
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Expr is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<Expr {brief(self)}>"

    def __reduce__(self):
        return Expr, (self.kind, self.children, self.value)  # via the node table


# ---------------------------------------------------------------------------
# Builders.  `neg` folds a literal constant so negative constants are a
# single node; the parser relies on this for the render round-trip.
# ---------------------------------------------------------------------------

def const(value: float) -> Expr:
    return Expr(CONST, (), float(value))


def var() -> Expr:
    return Expr(VAR)


def add(left: Expr, right: Expr) -> Expr:
    return Expr(ADD, (left, right))


def sub(left: Expr, right: Expr) -> Expr:
    return Expr(SUB, (left, right))


def mul(left: Expr, right: Expr) -> Expr:
    return Expr(MUL, (left, right))


def div(left: Expr, right: Expr) -> Expr:
    return Expr(DIV, (left, right))


def neg(operand: Expr) -> Expr:
    if operand.kind == CONST:
        return const(-operand.value)
    return Expr(NEG, (operand,))


def power(base: Expr, exponent: float) -> Expr:
    if isinstance(exponent, Expr):
        raise TypeError("power exponent must be a constant real, not an Expr")
    return Expr(POW, (base,), float(exponent))


def sin(operand: Expr) -> Expr:
    return Expr(SIN, (operand,))


def cos(operand: Expr) -> Expr:
    return Expr(COS, (operand,))


def exp(operand: Expr) -> Expr:
    return Expr(EXP, (operand,))


def ln(operand: Expr) -> Expr:
    return Expr(LN, (operand,))


# ---------------------------------------------------------------------------
# Grammar.  One precedence table drives both the parser and the renderer:
#
#   infix(p) := unary (op infix(prec(op) + 1))*   binary op with prec(op) >= p
#   unary    := '-' unary | base ('^' exponent)?
#   base     := number | 'x' | func '(' infix(1) ')' | '(' infix(1) ')'
#   func     := 'sin' | 'cos' | 'exp' | 'ln'       a kind in FUNC_KINDS is its name
#
# The parser climbs _PRECEDENCE (Pratt, "Top down operator precedence",
# 1973; Clarke, "The top-down parsing of expressions", 1986): a right operand
# binds one level tighter than its operator, so binary operators are left
# associative, and the renderer parenthesizes a right operand of equal
# precedence, so parse(render(e)) rebuilds e.  The exponent is a literal
# number, optionally signed and parenthesized, as in "(1+x)^(-1)".  Text is
# ASCII; the first character that starts no token is refused before parsing.
# Each level of nesting takes three Python frames; a RecursionError becomes a
# ParseError.
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5

_PRECEDENCE = {ADD: _PREC_ADD, SUB: _PREC_ADD, MUL: _PREC_MUL, DIV: _PREC_MUL,
               NEG: _PREC_NEG, POW: _PREC_POW}
_BINARY_SYMBOLS = {ADD: "+", SUB: "-", MUL: "*", DIV: "/"}
_BINARY_KINDS = {symbol: kind for kind, symbol in _BINARY_SYMBOLS.items()}

_TOKEN_RE = re.compile(
    r"(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<symbol>[-+*/^()])"
    r"|[\s\x1c-\x1f]+"  # the ASCII characters str.isspace accepts
    r"|(?P<other>.)", re.ASCII | re.DOTALL)


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, the kind "number", "ident", the symbol
    itself, or "end" for the one past the last."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, s, offset = m.lastgroup, m.group(), m.start()
        if kind == "other":
            if s == ".":
                raise ParseError(offset, "malformed number starting at '.'", "number")
            raise ParseError(offset, f"unknown token {s!r}")
        if kind is not None:
            tokens.append((s if kind == "symbol" else kind, s, offset))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def accept(self, kind: str) -> bool:
        """Step past the next token if it is of this kind."""
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, expected: str) -> None:
        if not self.accept(kind):
            _, text, offset = self.peek()
            raise ParseError(offset, f"unexpected token {_cut(text)!r}", expected)

    def parse_infix(self, minprec: int) -> Expr:
        """A unary, then each binary operator of precedence minprec or more,
        its right operand climbing one level higher."""
        node = self.parse_unary()
        while (kind := _BINARY_KINDS.get(self.peek()[0])) and _PRECEDENCE[kind] >= minprec:
            self.pos += 1
            node = Expr(kind, (node, self.parse_infix(_PRECEDENCE[kind] + 1)))
        return node

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            return neg(self.parse_unary())
        base = self.parse_base()
        if not self.accept("^"):
            return base
        parenthesized = self.accept("(")
        sign = -1.0 if self.accept("-") else 1.0
        if self.peek()[0] != "number":
            raise ParseError(self.peek()[2], "exponent must be a constant", "number")
        exponent = sign * self._number()
        if parenthesized:
            self.expect(")", "')' closing the exponent")
        return power(base, exponent)

    def _number(self) -> float:
        _, text, offset = self.tokens[self.pos]
        self.pos += 1
        value = float(text)
        if not math.isfinite(value):
            raise ParseError(offset, "number overflows a float", "a finite number")
        return value

    def parse_base(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "number":
            return const(self._number())
        if kind == "ident" and text == "x":
            self.pos += 1
            return var()
        if kind == "ident" and text not in FUNC_KINDS:
            raise ParseError(offset, f"unknown identifier {_cut(text)!r}",
                             "'x' or one of " + ", ".join(FUNC_KINDS))
        if kind not in ("ident", "("):
            raise ParseError(offset, f"unexpected token {_cut(text)!r}",
                             "number, 'x', function, or '('")
        self.pos += 1
        if kind == "ident":
            self.expect("(", f"'(' after {text}")
        inner = self.parse_infix(_PREC_ADD)
        self.expect(")", "')'")
        return inner if kind == "(" else Expr(text, (inner,))


def parse(text: str) -> Expr:
    """Parse infix expression text into an Expr tree."""
    parser = _Parser(text)
    if parser.peek()[0] == "end":
        raise ParseError(0, "empty input", "an expression")
    try:
        node = parser.parse_infix(_PREC_ADD)
    except RecursionError:
        raise ParseError(parser.peek()[2], "expression nested too deeply") from None
    parser.expect("end", "end of input or an operator")
    return node


# ---------------------------------------------------------------------------
# Rendering.  Each node is parenthesized where its precedence is below the
# one its position asks for (see Grammar).
# ---------------------------------------------------------------------------

def format_number(value: float) -> str:
    return repr(float(value))


_BRIEF_LIMIT = 200


def _pieces(e: Expr, minprec: int):
    """The rendered text of e, as a stream of pieces."""
    k = e.kind
    prec = _PRECEDENCE.get(k, _PREC_ATOM)
    if k == CONST and math.copysign(1.0, e.value) < 0.0:
        prec = _PREC_NEG  # negative literal, -0.0 too, reparses through unary minus
    paren = prec < minprec
    if paren:
        yield "("
    if k == CONST:
        yield format_number(e.value)
    elif k == VAR:
        yield "x"
    elif k in _BINARY_SYMBOLS:
        yield from _pieces(e.children[0], prec)
        yield _BINARY_SYMBOLS[k]
        yield from _pieces(e.children[1], prec + 1)
    elif k == NEG:
        yield "-"
        yield from _pieces(e.children[0], _PREC_NEG)
    elif k == POW:
        yield from _pieces(e.children[0], _PREC_ATOM)
        yield f"^{format_number(e.value)}"
    elif k in FUNC_KINDS:
        yield f"{k}("
        yield from _pieces(e.children[0], _PREC_ADD)
        yield ")"
    else:
        raise ValueError(f"unknown node kind {k!r}")
    if paren:
        yield ")"


def render(e: Expr) -> str:
    """Render to infix text; parse(render(e)) is structurally identical.
    The text is as long as e is as a tree: exponential in its DAG size."""
    return "".join(_pieces(e, _PREC_ADD))


def _cut(text: str) -> str:
    """text, cut to _BRIEF_LIMIT characters ending in "..." if longer; error
    messages quote tokens and expressions cut this way."""
    return text if len(text) <= _BRIEF_LIMIT else text[:_BRIEF_LIMIT - 3] + "..."


def brief(e: Expr) -> str:
    """_cut(render(e)), in O(_BRIEF_LIMIT)."""
    text = ""
    for piece in _pieces(e, _PREC_ADD):
        text += piece
        if len(text) > _BRIEF_LIMIT:
            return _cut(text)
    return text


# ---------------------------------------------------------------------------
# Evaluation goes through one op table.  For each node kind, _OPS holds the
# scalar op (math.*), the array op (numpy, so quadrature evaluates a panel in
# one call) and the domain guards, checked in order before the op.  A guard's
# test reads the operands, floats or arrays alike; POW's guards apply only for
# some exponents.  Ops of kinds that carry a value (CONST, POW) take it first.
# A point is valued by a memoized walk of the DAG; an array of points runs a
# tape (Griewank & Walther, 2008) that frees each array after its last use.
# ---------------------------------------------------------------------------

_EXP_OVERFLOW = 709.782712893384  # log(DBL_MAX)


class _Guard(NamedTuple):
    test: Callable                        # operands -> refused?
    reason: str
    applies: Callable = lambda c: True    # on the node's value
    shows_operand: bool = False           # the scalar message names it


class _Op(NamedTuple):
    scalar: Callable
    array: Callable
    guards: tuple = ()


_OPS = {
    CONST: _Op(None, lambda c, xs: np.full(xs.shape, c)),  # the walk reads c itself
    ADD: _Op(operator.add, np.add),
    SUB: _Op(operator.sub, np.subtract),
    MUL: _Op(operator.mul, np.multiply),
    DIV: _Op(operator.truediv, np.divide,
             (_Guard(lambda a, b: b == 0.0, "division by zero"),)),
    NEG: _Op(operator.neg, np.negative),
    POW: _Op(lambda c, a: math.pow(a, c), lambda c, a: np.power(a, c), (
        _Guard(lambda a: a == 0.0, "zero base with negative exponent",
               lambda c: c < 0.0),
        _Guard(lambda a: a < 0.0, "negative base with non-integer exponent",
               lambda c: not c.is_integer()))),
    SIN: _Op(math.sin, np.sin),
    COS: _Op(math.cos, np.cos),
    EXP: _Op(math.exp, np.exp, (_Guard(lambda a: a > _EXP_OVERFLOW, "exp overflow"),)),
    LN: _Op(math.log, np.log,
            (_Guard(lambda a: a <= 0.0, "ln of non-positive value", shows_operand=True),)),
}


def _resolve(kind: str, value: float | None) -> _Op:
    """The op of a node: its value bound into both ops, its guards filtered."""
    op = _OPS.get(kind)
    if op is None:
        raise ValueError(f"unknown node kind {kind!r}")
    if value is None:
        return op
    return _Op(op.scalar and partial(op.scalar, value), partial(op.array, value),
               tuple(g for g in op.guards if g.applies(value)))


def evaluate(e: Expr, x: float) -> float:
    """IEEE-double evaluation of e at the point x."""
    return value_at(e, x, {})


def value_at(e: Expr, x: float, values: dict) -> float:
    """evaluate(e, x), from and into `values`, a memo of node -> value at x
    that expressions at the one point x may share: each distinct node is
    valued once however many of them read it."""
    try:
        result = _value(e, float(x), values)
    except DomainError:
        raise
    except (OverflowError, ValueError) as err:
        raise DomainError(brief(e), x, f"arithmetic failure: {err}") from err
    if not math.isfinite(result):
        raise DomainError(brief(e), x, "non-finite result")
    return result


def _value(e: Expr, x: float, values: dict) -> float:
    """e's value at x, read from or written into the memo `values`: children
    left to right, a node's guards before its op, in the order the tape checks
    them.  One Python frame per level of e, as _visit takes."""
    if e.kind == VAR:
        return x
    v = e.value if e.kind == CONST else values.get(e)
    if v is None:
        a = []
        for child in e.children:
            a.append(_value(child, x, values))
        op, c = _OPS.get(e.kind), e.value
        if op is None:
            raise ValueError(f"unknown node kind {e.kind!r}")
        for g in op.guards:
            if g.test(*a) and g.applies(c):
                raise DomainError(brief(e), x, f"{g.reason} {a[0]}" if g.shows_operand else g.reason)
        v = values[e] = op.scalar(*a) if c is None else op.scalar(c, *a)
    return v


def _tape(e: Expr) -> tuple:
    """(array op, operand slot i, operand slot j or -1, guards, weak reference
    to the node, slots last read here) per distinct node of e but x, which is
    slot 0; step s fills slot s + 1, in the order _value's walk completes
    them, so domain checks keep that order.  Cached."""
    if e._tape is None:
        steps: list[tuple] = []
        _visit(e, {}, steps)
        last = {q: s for s, step in enumerate(steps) for q in step[1:3]}
        object.__setattr__(e, "_tape", tuple(
            step + ({q for q in step[1:3] if q >= 0 and last[q] == s},)
            for s, step in enumerate(steps)))
    return e._tape


def _visit(node: Expr, slots: dict, steps: list) -> int:
    if node.kind == VAR:
        return 0
    slot = slots.get(node)
    if slot is None:
        kids = node.children
        i = _visit(kids[0], slots, steps) if kids else 0  # CONST reads x
        j = _visit(kids[1], slots, steps) if len(kids) > 1 else -1
        op = _resolve(node.kind, node.value)
        steps.append((op.array, i, j, op.guards, weakref.ref(node)))
        slot = slots[node] = len(steps)
    return slot


def _refuse(bad: np.ndarray, node: Expr, xs: np.ndarray, reason: str, operand=None) -> None:
    """Raise DomainError at the first point where `bad` holds, if any, the
    reason naming the operand's value there if an operand is given."""
    if bad.any():
        k = np.nonzero(bad)[0][0]
        shown = "" if operand is None else f" {float(operand[k])}"
        raise DomainError(brief(node), float(xs[k]), reason + shown)


def _run_array(tape: tuple, xs: np.ndarray) -> np.ndarray:
    v = [xs]
    push = v.append
    for f, i, j, guards, ref, dead in tape:
        a = (v[i],) if j < 0 else (v[i], v[j])
        for g in guards:
            _refuse(g.test(*a), ref(), xs, g.reason, a[0] if g.shows_operand else None)
        push(f(*a))
        for q in dead:  # free each array after its last use
            v[q] = None
    return v[-1]


def evaluate_array(e: Expr, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a 1-D array of points."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        result = _run_array(_tape(e), xs)
    _refuse(~np.isfinite(result), e, xs, "non-finite result")
    return result


# ---------------------------------------------------------------------------
# Building.  _build folds a node of constants by its scalar op and guards, so
# values stay bit-identical; it keeps the node, and its error, where a guard
# refuses, math raises or the result is not finite.  It keeps it too where a
# MUL, DIV, POW or EXP of nonzero operands gives 0: an underflow, which the
# identities would take for an exact zero and drop a term.  Then it returns
# the node or what an exact identity folds it to: 0 + v, v + 0, v - 0, 1 * v,
# v * 1, v / 1 and v^1 to v, a product with a zero factor to 0, v^0 to 1 and
# -(-v) to v; these hold in IEEE arithmetic for finite v, up to the sign of
# zero.  The quotient rule drops a zero numerator the same way.
# It tests before it builds, so no throwaway node enters the node table.
# ---------------------------------------------------------------------------

_UNDERFLOWING = (MUL, DIV, POW, EXP)


def _is_zero(e: Expr) -> bool:
    return e.kind == CONST and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return e.kind == CONST and e.value == 1.0


def _build(kind: str, kids: tuple, value: float | None = None) -> Expr:
    """The node, folded; one built from simplified children is marked as its
    own simplification, so the derivative of a simplified expression is too."""
    if kids[0].kind == CONST and all(c.kind == CONST for c in kids):
        op, a = _resolve(kind, value), [c.value for c in kids]
        try:
            if (not any(g.test(*a) for g in op.guards) and math.isfinite(r := op.scalar(*a))
                    and (r != 0.0 or 0.0 in a or kind not in _UNDERFLOWING)):
                return const(r)
        except (OverflowError, ValueError):
            pass
    if kind == ADD:
        if _is_zero(kids[0]):
            return kids[1]
        if _is_zero(kids[1]):
            return kids[0]
    elif kind == MUL:
        if _is_zero(kids[0]) or _is_zero(kids[1]):
            return const(0.0)
        if _is_one(kids[0]):
            return kids[1]
        if _is_one(kids[1]):
            return kids[0]
    elif (kind == SUB and _is_zero(kids[1])) or (kind == DIV and _is_one(kids[1])):
        return kids[0]
    elif kind == POW and value in (0.0, 1.0):
        return kids[0] if value == 1.0 else const(1.0)
    elif kind == NEG and kids[0].kind == NEG:
        return kids[0].children[0]
    node = Expr(kind, kids, value)
    if all(not c.children or (c._simplified and c._simplified() is c) for c in kids):
        object.__setattr__(node, "_simplified", weakref.ref(node))
    return node


def _minus(l: Expr, r: Expr) -> Expr:
    """l - r, built as -r when l is zero, as it is once folded, and r is not:
    d(c - v) = -dv, where 0 - r would differ from -r in the sign of zero."""
    if _is_zero(l) and not _is_zero(r):
        return _build(NEG, (r,))
    return _build(SUB, (l, r))


def simplify(e: Expr) -> Expr:
    """_build bottom up, memoized: the value is kept wherever e evaluates,
    but 0*v folds to 0 and drops v's domain error."""
    if not e.children:
        return e
    s = e._simplified and e._simplified()
    if s is None:
        s = _build(e.kind, tuple(simplify(c) for c in e.children), e.value)
        object.__setattr__(e, "_simplified", weakref.ref(s))
    return s


# ---------------------------------------------------------------------------
# Differentiation.
# ---------------------------------------------------------------------------

def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative, memoized per node; exact at any order."""
    d = e._derivative and e._derivative()
    if d is None:
        d = _derive(e)
        object.__setattr__(e, "_derivative", weakref.ref(d))
    return d


def _derive(e: Expr) -> Expr:
    k, kids = e.kind, e.children
    if k == CONST:
        return const(0.0)
    if k == VAR:
        return const(1.0)
    if k == ADD:
        return _build(ADD, tuple(map(differentiate, kids)))
    if k == SUB:
        return _minus(*map(differentiate, kids))
    if k == MUL:
        l, r = kids
        return _build(ADD, (_build(MUL, (differentiate(l), r)),
                            _build(MUL, (l, differentiate(r)))))
    if k == DIV:  # d(u / w^c) = (u'w - c u w') / w^(c+1), so the n-th derivative
        # divides by w^(c+n), not by w^(c 2^n).  A plain v is w^1; v = w^0 is
        # kept whole, since dividing by w would add a pole at w = 0.
        u, v = kids
        w, c = (v.children[0], v.value) if v.kind == POW and v.value != 0.0 else (v, 1.0)
        numerator = _minus(_build(MUL, (differentiate(u), w)),
                           _build(MUL, (_build(MUL, (const(c), u)), differentiate(w))))
        if _is_zero(numerator):
            return const(0.0)
        return _build(DIV, (numerator, _build(POW, (w,), c + 1.0)))
    if k not in _OPS:
        raise ValueError(f"unknown node kind {k!r}")
    u = kids[0]
    du = differentiate(u)
    if _is_zero(du):
        return const(0.0)
    if k == NEG:
        return _build(NEG, (du,))
    if k == LN:
        return _build(DIV, (du, u))
    if k == SIN:
        outer = _build(COS, (u,))
    elif k == COS:
        outer = _build(NEG, (_build(SIN, (u,)),))
    elif k == EXP:
        outer = e
    else:
        outer = _build(MUL, (const(e.value), _build(POW, (u,), e.value - 1.0)))
    return _build(MUL, (outer, du))
