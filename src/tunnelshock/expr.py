"""Tiny expression language for scalar coefficient fields.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary ``-`` < ``^``
(right associative).  Atoms are decimal constants, named variables, calls of
the builtin functions, and parenthesized subexpressions.  Evaluation is
numpy-backed, so scalars and arrays broadcast alike; any non-finite
intermediate is reported as a domain error instead of propagating.
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
    """A parsed expression over a fixed set of variable names."""

    __slots__ = ("source", "ast", "names")

    def __init__(self, source, ast, names):
        self.source = source
        self.ast = ast
        self.names = frozenset(names)

    def __call__(self, **env):
        return evaluate(self, **env)

    def __repr__(self):
        return f"Expression({self.source!r})"


class _Parser:
    def __init__(self, source, allowed_names):
        self.source = source
        self.toks = _tokenize(source)
        self.pos = 0
        self.allowed = frozenset(allowed_names)
        self.seen = set()

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
            if value not in self.allowed:
                raise UnknownNameError(value, off)
            self.seen.add(value)
            return ("var", value)
        if kind == _TOK_OP and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            "unexpected token", off, ("number", "identifier", "'('", "'-'"))


def parse(source, allowed_names=("x", "t")):
    """Parse ``source`` into an Expression over ``allowed_names``."""
    p = _Parser(source, allowed_names)
    node = p.parse_expr()
    kind, _, off = p.peek()
    if kind != _TOK_END:
        raise ExpressionSyntaxError("trailing input", off, ("operator", "end of input"))
    return Expression(source, node, p.seen)


def as_expression(src, allowed_names=("x", "t")):
    """Parse text over ``allowed_names``; anything else passes through."""
    if isinstance(src, str):
        return parse(src, allowed_names)
    return src


# ---------------------------------------------------------------------------
# evaluation


def _check_finite(value, what):
    ok = np.all(np.isfinite(value))
    if not ok:
        raise EvalDomainError(f"non-finite value from {what}")
    return value


def _eval(node, env):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "neg":
        return -_eval(node[1], env)
    if tag == "bin":
        op, left, right = node[1], node[2], node[3]
        a = _eval(left, env)
        b = _eval(right, env)
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
    vals = [_eval(a, env) for a in args]
    if fname in _UNARY_FN:
        r = _UNARY_FN[fname](vals[0])
    else:
        fn = _NARY_FN[fname]
        r = vals[0]
        for v in vals[1:]:
            r = fn(r, v)
    return _check_finite(r, f"{fname}()")


def evaluate(e, **env):
    """Evaluate Expression ``e`` with variable bindings given as keywords.

    Values may be floats or numpy arrays (broadcasting applies).  Raises
    EvalDomainError whenever any intermediate is non-finite.
    """
    missing = e.names - set(env)
    if missing:
        raise ExpressionError(f"missing bindings for {sorted(missing)}")
    with np.errstate(all="ignore"):
        out = _eval(e.ast, env)
    if isinstance(out, np.ndarray):
        return out
    return float(out)


def evaluate_at(e, x, **env):
    """Evaluate ``e`` at positions ``x``, broadcast to the shape of ``x``.

    Adding zeros also turns a -0.0 result into +0.0, so printed values do
    not depend on how the expression reached zero.
    """
    x = np.asarray(x, dtype=float)
    return evaluate(e, x=x, **env) + np.zeros_like(x)


# ---------------------------------------------------------------------------
# printing: emit a source form that reparses to the same tree

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def _unparse(node, parent_prec):
    tag = node[0]
    if tag == "num":
        text, prec = _fmt_num(node[1]), _PREC["atom"]
    elif tag == "var":
        text, prec = node[1], _PREC["atom"]
    elif tag == "neg":
        prec = _PREC["neg"]
        text = "-" + _unparse(node[1], prec)
    elif tag == "bin":
        op = node[1]
        prec = _PREC[op]
        # left-assoc chains reuse prec on the left; '^' is right-assoc
        if op == "^":
            left = _unparse(node[2], prec + 1)
            right = _unparse(node[3], _PREC["neg"])  # exponent parsed at unary level
        else:
            left = _unparse(node[2], prec)
            right = _unparse(node[3], prec + 1)
        text = f"{left} {op} {right}" if op in "+-" else f"{left}{op}{right}"
    else:
        text = node[1] + "(" + ", ".join(_unparse(a, 0) for a in node[2]) + ")"
        prec = _PREC["atom"]
    if prec < parent_prec:
        return "(" + text + ")"
    return text


def to_source(e):
    """Render an Expression back to parseable text (round-trip stable)."""
    return _unparse(e.ast, 0)
