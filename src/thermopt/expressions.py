"""Closed-form boundary data of config files: arithmetic in the coordinates.

+ - * / and ^ (right associative, binding tighter than a unary minus on its
left: -2^2 = -4), unary - and +, parentheses, the coordinates x, y, z, the
constant pi, exp and sin of one argument, and decimal numerals (7, 07, 3.,
.5, 1e-3, 2.5E+4). Python's `ast` parses the text with ^ read as **, and
every node is checked against this grammar: any other syntax is a
ConfigurationError. Expressions evaluate vectorized over coordinate arrays
of shape (n, dim) in IEEE arithmetic (1/0 is inf); a missing coordinate
(z in 2D) is an error.
"""

from __future__ import annotations

import ast
import math
import operator
import re

import numpy as np

from .errors import ConfigurationError

_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")

_FUNCTIONS = {"exp": np.exp, "sin": np.sin}
_CONSTANTS = {"pi": math.pi}
_AXES = {"x": 0, "y": 1, "z": 2}


class Expression:
    """Parsed closed-form expression in the coordinates, evaluated vectorized."""

    def __init__(self, text: str):
        self.text = text
        # the grammar's characters only, so no comment, string, comma or
        # bracket reaches the parser; `^` is the power, never `**`
        if "**" in text or not re.fullmatch(r"[\s\dA-Za-z_+\-*/^().]*", text):
            raise ConfigurationError(f"expression {text!r}: a character outside the "
                                     "grammar, or `**` (the power is `^`)")
        # one space for any whitespace, ASCII for any decimal digit (float()
        # reads both), `**` for `^`, and no leading zero on an integer
        # numeral, which Python rejects: 07 is 7
        source = re.sub(r"\d", lambda m: str(int(m[0])), " ".join(text.split()))
        self._source = re.sub(r"(?<![\w.])0+(?=\d)", "", source.replace("^", "**"))
        try:
            self._tree = ast.parse(self._source, mode="eval").body
            self(np.zeros((0, 3)))   # visits every node: the grammar check
        except (SyntaxError, RecursionError) as exc:
            raise ConfigurationError(f"expression {text!r}: {exc.args[0]}") from None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            out = self._evaluate(self._tree, points)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               (points.shape[0],)).copy()

    def _evaluate(self, node: ast.expr, pts: np.ndarray):
        """The value of `node` at the points `pts`; a ConfigurationError when
        `node` lies outside the grammar."""
        segment = self._source[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.BinOp):
            # + - * by Python's operators, whose NaN signs ufuncs need not share;
            # / and ^ as IEEE ufuncs, so that 1/0 is inf
            op = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                  ast.Div: np.divide, ast.Pow: np.power}.get(type(node.op))
            if op is not None:
                return op(self._evaluate(node.left, pts), self._evaluate(node.right, pts))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = self._evaluate(node.operand, pts)
            return -value if isinstance(node.op, ast.USub) else value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords
              and node.func.col_offset == node.col_offset):   # not `(sin)(x)`
            return _FUNCTIONS[node.func.id](self._evaluate(node.args[0], pts))
        elif isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
            return float(segment)
        elif isinstance(node, ast.Name) and node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        elif isinstance(node, ast.Name) and node.id in _AXES:
            if _AXES[node.id] >= pts.shape[1]:
                raise ConfigurationError(
                    f"expression {self.text!r}: coordinate {node.id!r} "
                    f"unavailable in dimension {pts.shape[1]}")
            return pts[:, _AXES[node.id]]
        raise ConfigurationError(f"expression {self.text!r}: {segment!r} is not in the grammar")
