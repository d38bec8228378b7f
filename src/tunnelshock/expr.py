"""Tiny expression language for scalar coefficient fields.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary ``-`` < ``^``
(right associative).  Atoms are decimal constants, the variable ``x``, calls
of the builtin functions, and parenthesized subexpressions.  Evaluation is
numpy-backed, so scalars and arrays broadcast alike; any non-finite
intermediate is reported as a domain error instead of propagating.
``diff`` takes the exact x-derivative of an expression symbolically.
"""

import numpy as np

FUNCTIONS = ("exp", "log", "sin", "cos", "tanh", "sech", "abs", "min", "max")

_UNARY_FN = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "sech": lambda v: 1.0 / np.cosh(v),
    "abs": np.abs,
    "sign": np.sign,  # internal: derivatives of abs/min/max; not parseable
}
_NARY_FN = {"min": np.minimum, "max": np.maximum}


class ExpressionError(ValueError):
    """Base for parse and evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message, offset, expected=()):
        self.offset = int(offset)
        self.expected = tuple(expected)
        hint = ", ".join(self.expected)
        text = f"{message} at offset {self.offset}"
        if hint:
            text += f" (expected: {hint})"
        super().__init__(text)


class UnknownNameError(ExpressionError):
    def __init__(self, name, offset):
        self.name = name
        self.offset = int(offset)
        super().__init__(f"unknown identifier '{name}' at offset {offset}")


class EvalDomainError(ExpressionError):
    """Non-finite value produced while evaluating (log of nonpositive, 1/0, overflow...)."""


# ---------------------------------------------------------------------------
# tokens

_TOK_NUM = "number"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"

_OP_CHARS = "+-*/^(),"


def _tokenize(source):
    toks = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t":
            i += 1
            continue
        if c in _OP_CHARS:
            toks.append((_TOK_OP, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionSyntaxError(f"bad number '{text}'", i) from None
            toks.append((_TOK_NUM, value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append((_TOK_NAME, source[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character '{c}'", i)
    toks.append((_TOK_END, "", n))
    return toks


# ---------------------------------------------------------------------------
# AST: plain tuples keep the tree cheap to build and hash.
#   ("num", value) ("var", name) ("neg", node)
#   ("bin", op, left, right) ("call", fname, (args...))


class Expression:
    """A parsed expression in the one variable x."""

    __slots__ = ("source", "ast", "has_x", "_dx")

    def __init__(self, source, ast):
        self.source = source
        self.ast = ast
        self.has_x = _has_x(ast)
        self._dx = None  # d/dx, derived on first use by ``diff``

    def __repr__(self):
        return f"Expression({self.source!r})"


class _Parser:
    def __init__(self, source):
        self.source = source
        self.toks = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, off = self.peek()
        if kind == _TOK_OP and value == op:
            return self.advance()
        raise ExpressionSyntaxError("unexpected token", off, (f"'{op}'",))

    # expr := term (('+'|'-') term)*
    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "+-":
                self.advance()
                node = ("bin", value, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "*/":
                self.advance()
                node = ("bin", value, node, self.parse_unary())
            else:
                return node

    # unary minus binds looser than '^' on its operand: -x^2 == -(x^2)
    def parse_unary(self):
        kind, value, _ = self.peek()
        if kind == _TOK_OP and value == "-":
            self.advance()
            return ("neg", self.parse_unary())
        return self.parse_power()

    # power := atom ('^' unary)?   right associative, exponent may carry unary -
    def parse_power(self):
        node = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == _TOK_OP and value == "^":
            self.advance()
            node = ("bin", "^", node, self.parse_unary())
        return node

    def parse_atom(self):
        kind, value, off = self.advance()
        if kind == _TOK_NUM:
            return ("num", value)
        if kind == _TOK_NAME:
            nkind, nvalue, _ = self.peek()
            if nkind == _TOK_OP and nvalue == "(":
                if value not in FUNCTIONS:
                    raise UnknownNameError(value, off)
                self.advance()
                args = [self.parse_expr()]
                while True:
                    pkind, pvalue, poff = self.peek()
                    if pkind == _TOK_OP and pvalue == ",":
                        self.advance()
                        args.append(self.parse_expr())
                    elif pkind == _TOK_OP and pvalue == ")":
                        self.advance()
                        break
                    else:
                        raise ExpressionSyntaxError("unexpected token", poff, ("','", "')'"))
                if value in _UNARY_FN and len(args) != 1:
                    raise ExpressionSyntaxError(
                        f"{value}() takes one argument", off, ())
                if value in _NARY_FN and len(args) < 2:
                    raise ExpressionSyntaxError(
                        f"{value}() takes at least two arguments", off, ())
                return ("call", value, tuple(args))
            if value != "x":
                raise UnknownNameError(value, off)
            return ("var", value)
        if kind == _TOK_OP and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            "unexpected token", off, ("number", "identifier", "'('", "'-'"))


def parse(source):
    """Parse ``source`` into an Expression in x."""
    p = _Parser(source)
    node = p.parse_expr()
    kind, _, off = p.peek()
    if kind != _TOK_END:
        raise ExpressionSyntaxError("trailing input", off, ("operator", "end of input"))
    return Expression(source, node)


def as_expression(src):
    """Parse text; anything else passes through."""
    if isinstance(src, str):
        return parse(src)
    return src


# ---------------------------------------------------------------------------
# evaluation


def _check_finite(value, what):
    if not np.isfinite(value).all():
        raise EvalDomainError(f"non-finite value from {what}")
    return value


def _eval(node, x):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return x
    if tag == "neg":
        return -_eval(node[1], x)
    if tag == "bin":
        op, left, right = node[1], node[2], node[3]
        a = _eval(left, x)
        b = _eval(right, x)
        if op == "+":
            r = a + b
        elif op == "-":
            r = a - b
        elif op == "*":
            r = a * b
        elif op == "/":
            r = np.divide(a, b)
        else:
            r = np.power(a, b)
        return _check_finite(r, f"'{op}'")
    # call
    fname, args = node[1], node[2]
    vals = [_eval(a, x) for a in args]
    if fname in _UNARY_FN:
        r = _UNARY_FN[fname](vals[0])
    else:
        fn = _NARY_FN[fname]
        r = vals[0]
        for v in vals[1:]:
            r = fn(r, v)
    return _check_finite(r, f"{fname}()")


def evaluate(e, x=None):
    """Evaluate Expression ``e`` at ``x``.

    ``x`` may be a float or a numpy array (broadcasting applies); it may be
    left out only when ``e`` does not depend on x.  Raises EvalDomainError
    whenever any intermediate is non-finite.
    """
    if x is None and e.has_x:
        raise ExpressionError("missing binding for x")
    with np.errstate(all="ignore"):
        out = _eval(e.ast, x)
    if isinstance(out, np.ndarray):
        return out
    return float(out)


def evaluate_at(e, x):
    """Evaluate ``e`` at positions ``x``, broadcast to the shape of ``x``.

    Adding zeros also turns a -0.0 result into +0.0, so printed values do
    not depend on how the expression reached zero.
    """
    x = np.asarray(x, dtype=float)
    return evaluate(e, x=x) + np.zeros_like(x)


# ---------------------------------------------------------------------------
# symbolic d/dx with constant folding

_ZERO = ("num", 0.0)
_ONE = ("num", 1.0)


def _has_x(node):
    """Whether a tree references x."""
    tag = node[0]
    if tag == "var":
        return True
    if tag == "neg":
        return _has_x(node[1])
    if tag == "bin":
        return _has_x(node[2]) or _has_x(node[3])
    if tag == "call":
        return any(_has_x(a) for a in node[2])
    return False


def _folded(node):
    """``node`` with all-number operands replaced by its value, computed as
    evaluation would; a non-finite value stays unfolded so that evaluating
    it still reports the domain error."""
    try:
        with np.errstate(all="ignore"):
            return ("num", float(_eval(node, None)))
    except EvalDomainError:
        return node


def _neg(a):
    if a[0] == "num":
        return ("num", -a[1])
    if a[0] == "neg":
        return a[1]
    if a[0] == "bin" and a[1] == "*" and a[2][0] == "num":
        return ("bin", "*", ("num", -a[2][1]), a[3])
    return ("neg", a)


def _bin(op, a, b):
    """Binary node with constant folding and the exact identities
    a+0, a-0, 0-a, a*0, a*1, a/1, a^1 and a^0."""
    ca = a[1] if a[0] == "num" else None
    cb = b[1] if b[0] == "num" else None
    if ca is not None and cb is not None:
        return _folded(("bin", op, a, b))
    if op == "+" and ca == 0.0:
        return b
    if op in "+-" and cb == 0.0:
        return a
    if op == "-" and ca == 0.0:
        return _neg(b)
    if op == "*":
        if ca == 0.0 or cb == 0.0:
            return _ZERO
        if ca == 1.0:
            return b
    if op in "*/^" and cb == 1.0:
        return a
    if op == "^" and cb == 0.0:
        return _ONE
    return ("bin", op, a, b)


def _call(fname, *args):
    node = ("call", fname, args)
    return _folded(node) if all(a[0] == "num" for a in args) else node


def _fold(node):
    """Fold every variable-free subtree of a parsed tree to its value."""
    tag = node[0]
    if tag == "neg":
        return _neg(_fold(node[1]))
    if tag == "bin":
        return _bin(node[1], _fold(node[2]), _fold(node[3]))
    if tag == "call":
        return _call(node[1], *(_fold(a) for a in node[2]))
    return node


def _kink(fname, a, b, da, db):
    """Derivative of min(a, b) or max(a, b): the derivative of the selected
    argument, and the mean of both at a tie, as central differences give."""
    if da == db:
        return da
    lead = _bin("-", b, a) if fname == "min" else _bin("-", a, b)
    mean = _bin("*", ("num", 0.5), _bin("+", da, db))
    half = _bin("*", ("num", 0.5), _bin("-", da, db))
    return _bin("+", mean, _bin("*", _call("sign", lead), half))


def _d(node):
    """d node / dx as a folded tree."""
    if not _has_x(node):
        return _ZERO
    tag = node[0]
    if tag == "var":
        return _ONE
    if tag == "neg":
        return _neg(_d(node[1]))
    if tag == "bin":
        op, a, b = node[1], node[2], node[3]
        da, db = _d(a), _d(b)
        if op in "+-":
            return _bin(op, da, db)
        if op == "*":
            return _bin("+", _bin("*", da, b), _bin("*", a, db))
        if op == "/":
            # (a/b)' = (a' - (a/b) b') / b, which avoids squaring b
            return _bin("/", _bin("-", da, _bin("*", node, db)), b)
        if not _has_x(b):
            # power rule: a^2 differentiates to 2*a, never through log(a)
            return _bin("*", _bin("*", b, _bin("^", a, _bin("-", b, _ONE))),
                        da)
        # a^b = exp(b log a): (a^b)' = a^b (b' log a + b a'/a)
        rate = _bin("*", db, _call("log", a))
        if _has_x(a):
            rate = _bin("+", rate, _bin("/", _bin("*", b, da), a))
        return _bin("*", node, rate)
    fname, args = node[1], node[2]
    if fname in _NARY_FN:
        r, dr = args[0], _d(args[0])
        for a in args[1:]:
            dr = _kink(fname, r, a, dr, _d(a))
            r = ("call", fname, (r, a))
        return dr
    a = args[0]
    if fname == "sign":
        return _ZERO
    if fname == "exp":
        outer = node
    elif fname == "log":
        return _bin("/", _d(a), a)
    elif fname == "sin":
        outer = _call("cos", a)
    elif fname == "cos":
        outer = _neg(_call("sin", a))
    elif fname == "tanh":
        outer = _bin("^", _call("sech", a), ("num", 2.0))
    elif fname == "sech":
        outer = _neg(_bin("*", node, _call("tanh", a)))
    else:  # abs; sign(0) = 0 is the central-difference limit at the kink
        outer = _call("sign", a)
    return _bin("*", outer, _d(a))


def diff(e):
    """Exact d/dx of Expression ``e``, derived once and cached on ``e``.

    Constant subtrees are folded, so a derivative that does not depend on
    x reads as a number through ``constant_value``.  The result is
    evaluated like any Expression, with the same per-node finiteness
    checks.  Its source is the label ``d/dx(<source of e>)``, not text
    that parses.
    """
    if e._dx is None:
        e._dx = Expression(f"d/dx({e.source})", _d(_fold(e.ast)))
    return e._dx


def constant_value(e):
    """The value of ``e`` when its tree is a single number, as it is for
    every ``diff`` result that does not depend on x; else None."""
    return e.ast[1] if e.ast[0] == "num" else None

