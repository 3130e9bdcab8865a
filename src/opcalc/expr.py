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
# Parsing.
#
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | factor
#   factor := base ('^' exponent)?
#   base   := number | 'x' | func '(' expr ')' | '(' expr ')'
#   func   := 'sin' | 'cos' | 'exp' | 'ln'
#
# The exponent is a literal number; an optional sign and optional enclosing
# parentheses are accepted there (e.g. "(1+x)^(-1)") since reciprocal powers
# are the natural way to write 1/(1+x) with closed-form derivatives.
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FUNC_BUILDERS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln}


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind  # "number" | "ident" | one of "+-*/^()" | "end"
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = _NUMBER_RE.match(text, i)
            if not m:
                raise ParseError(i, f"malformed number starting at {c!r}", "number")
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(text, i)
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(i, f"unknown token {c!r}")
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.offset, f"unexpected token {_cut(tok.text)!r}", expected)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.parse_unary()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return neg(self.parse_unary())
        return self.parse_factor()

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().kind == "^":
            self.advance()
            return power(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> float:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            value = self._signed_number()
            self.expect(")", "')' closing the exponent")
            return value
        return self._signed_number()

    def _signed_number(self) -> float:
        sign = 1.0
        if self.peek().kind == "-":
            self.advance()
            sign = -1.0
        tok = self.peek()
        if tok.kind != "number":
            raise ParseError(tok.offset, "exponent must be a constant", "number")
        return sign * self._number()

    def _number(self) -> float:
        tok = self.advance()
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(tok.offset, "number overflows a float", "a finite number")
        return value

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            return const(self._number())
        if tok.kind == "ident":
            self.advance()
            if tok.text == "x":
                return var()
            builder = _FUNC_BUILDERS.get(tok.text)
            if builder is None:
                raise ParseError(
                    tok.offset, f"unknown identifier {_cut(tok.text)!r}",
                    "'x' or one of sin, cos, exp, ln",
                )
            self.expect("(", f"'(' after {tok.text}")
            inner = self.parse_expr()
            self.expect(")", "')'")
            return builder(inner)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner
        raise ParseError(tok.offset, f"unexpected token {_cut(tok.text)!r}",
                         "number, 'x', function, or '('")


def parse(text: str) -> Expr:
    """Parse infix expression text into an Expr tree."""
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError(0, "empty input", "an expression")
    parser = _Parser(tokens)
    try:
        node = parser.parse_expr()
    except RecursionError:  # recursive descent takes several frames per level
        raise ParseError(parser.peek().offset, "expression nested too deeply") from None
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(tail.offset, f"unexpected token {_cut(tail.text)!r}",
                         "end of input or an operator")
    return node


# ---------------------------------------------------------------------------
# Rendering.  Parenthesization is chosen so parse(render(e)) rebuilds a
# structurally identical tree (binary operators are left-associative in the
# grammar, so right operands at equal precedence get parentheses).
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def format_number(value: float) -> str:
    return repr(float(value))


_PRECEDENCE = {ADD: _PREC_ADD, SUB: _PREC_ADD, MUL: _PREC_MUL, DIV: _PREC_MUL,
               NEG: _PREC_NEG, POW: _PREC_POW}
_BINARY_SYMBOLS = {ADD: "+", SUB: "-", MUL: "*", DIV: "/"}
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
# refuses, math raises or the result is not finite.  Then it returns the node
# or what an exact identity folds it to: 0 + v, v + 0, v - 0, 1 * v, v * 1,
# v / 1 and v^1 to v, a product with a zero factor to 0, v^0 to 1 and -(-v)
# to v; these hold in IEEE arithmetic for finite v, up to the sign of zero.
# It tests before it builds, so no throwaway node enters the node table.
# ---------------------------------------------------------------------------

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
            if not any(g.test(*a) for g in op.guards) and math.isfinite(r := op.scalar(*a)):
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
