"""Textual input language: presentations, expressions, job documents.

The grammar is small and line-oriented; statements end with semicolons and
``#`` starts a comment.  Expressions support integers, field operations
``+ - * / ^``, parentheses, generator names, ``g[k]`` for shifted free
generators, ``s(expr, k)`` for the k-th automorphism power, and
``wp(expr)`` for sigma(x) - x.

    gen g free;
    gen a1 affine linear=g const=g;
    twisted e1 = 1, e2 = a1;

``tokenize`` reads the text in one pass into plain tuples
``(kind, text, line, column)``; kind is "name", "int", "punct" or "end", and
the list ends with one "end" token.  Columns count characters from 1 (a tab
is one column), and a comment takes no columns, so an end of input after a
trailing comment is at its ``#``.  Integers are ASCII digits only.

Errors carry positions: syntax problems report line and column, semantic
problems name the offending generator.  Expressions nest at most
``MAX_NESTING`` levels, and an integer literal has at most the digits that
``int`` converts (``sys.get_int_max_str_digits()``); past either limit the
error is a syntax error at the token that crosses it.  A power whose
expansion is estimated at more than ``MAX_POWER_TERMS`` terms, or whose
largest coefficient at more than ``MAX_POWER_DIGITS`` digits, is a syntax
error at its ``^``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

from .field import Element, Presentation, PresentationError
from .ratfunc import CircleValue, RatFunc
from .record import field, record


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"syntax error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SemanticError(ValueError):
    pass


_SPACE = frozenset(" \t\r")
_PUNCT = frozenset("[](),;=+-*/^|:")
_DIGITS = frozenset("0123456789")
# Characters that continue a name; a non-ASCII one continues it when isalnum.
_WORD = frozenset("_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
# The deepest nesting of expressions (parentheses, s(...), wp(...)) and unary
# minus signs in one expression.  A level of parentheses takes four frames of
# the recursive descent, so parsing stays well inside the recursion limit.
MAX_NESTING = 100
# The most terms a power may expand to, estimated before it is taken: a base
# of t terms to the n-th power has at most C(n + t - 1, t - 1) of them.
MAX_POWER_TERMS = 2000
# The most digits a power's largest coefficient may have, estimated before it
# is taken: printing a coefficient is quadratic in its digits.
MAX_POWER_DIGITS = 100_000


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens: list[tuple[str, str, int, int]] = []
    # int() refuses a literal of more digits (0: no limit, as before Python 3.10.7)
    max_digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    append = tokens.append
    line, start = 1, 0  # start: the index of the line's first character
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _SPACE:
            i += 1
        elif ch in _PUNCT:
            append(("punct", ch, line, i - start + 1))
            i += 1
        elif ch == "\n":
            i += 1
            line, start = line + 1, i
        elif ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > max_digits > 0:
                raise ParseError(f"integer literal of {j - i} digits is too long", line, i - start + 1)
            append(("int", text[i:j], line, i - start + 1))
            i = j
        elif ch == "_" or ch.isalpha():
            j = i + 1
            while j < n and (text[j] in _WORD or text[j].isalnum()):
                j += 1
            append(("name", text[i:j], line, i - start + 1))
            i = j
        elif ch == "#":
            j = text.find("\n", i)
            if j < 0:  # the comment takes no columns: the end is at its '#'
                append(("end", "", line, i - start + 1))
                return tokens
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, i - start + 1)
    append(("end", "", line, i - start + 1))
    return tokens


class _Cursor:
    """A position in the tokens of one document, and its atom table.

    ``accept`` and ``expect`` compare token texts only: a punct text is never
    a name or an int, and the "end" token's empty text is never asked for.
    ``atoms`` holds the element of each ``(name, shift)`` over the
    presentation ``atoms_pres``, and is emptied when the presentation changes.
    ``depth`` counts the open levels of nesting, at most ``MAX_NESTING``.
    """

    __slots__ = ("tokens", "texts", "pos", "depth", "atoms", "atoms_pres")

    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.texts = [tok[1] for tok in tokens]
        self.pos = 0
        self.depth = 0
        self.atoms: dict[tuple[str, int], Element] = {}
        self.atoms_pres: Presentation | None = None

    def error(self, want: str) -> ParseError:
        _, text, line, column = self.tokens[self.pos]
        return ParseError(f"expected {want!r}, found {text or 'end of input'!r}", line, column)

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.error(text)
        self.pos += 1

    def take(self, kind: str) -> str:
        """The text of the next token, which must be of this kind."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(kind)
        self.pos += 1
        return tok[1]

    def too_deep(self) -> ParseError:
        """The error for one more level of nesting than ``MAX_NESTING``.

        ``_expr`` and a unary minus check and count ``depth`` inline: a
        method call per expression would cost parsing a few percent.
        """
        _, _, line, column = self.tokens[self.pos]
        return ParseError(f"expression nested deeper than {MAX_NESTING} levels", line, column)


_RESERVED = {"s", "wp", "free", "affine", "gen", "linear", "const"}


def _expr(cur: _Cursor, pres: Presentation) -> Element:
    if cur.depth == MAX_NESTING:
        raise cur.too_deep()
    cur.depth += 1
    total = _term(cur, pres)
    texts = cur.texts
    while True:
        op = texts[cur.pos]
        if op == "+":
            cur.pos += 1
            total = total + _term(cur, pres)
        elif op == "-":
            cur.pos += 1
            total = total - _term(cur, pres)
        else:
            cur.depth -= 1
            return total


def _term(cur: _Cursor, pres: Presentation) -> Element:
    total = _factor(cur, pres)
    texts = cur.texts
    while True:
        op = texts[cur.pos]
        if op == "*":
            cur.pos += 1
            total = total * _factor(cur, pres)
        elif op == "/":
            cur.pos += 1
            _, _, line, column = cur.tokens[cur.pos]
            divisor = _factor(cur, pres)
            if divisor.is_zero():
                raise ParseError("division by zero", line, column)
            total = total / divisor
        else:
            return total


def _factor(cur: _Cursor, pres: Presentation) -> Element:
    if cur.accept("-"):
        if cur.depth == MAX_NESTING:
            raise cur.too_deep()
        cur.depth += 1
        negated = -_factor(cur, pres)
        cur.depth -= 1
        return negated
    base = _atom(cur, pres)
    if cur.accept("^"):
        hat = cur.pos - 1
        expo = _signed_int(cur)
        if expo < 0 and base.is_zero():
            _, _, line, column = cur.tokens[cur.pos]
            raise ParseError("zero to a negative power", line, column)
        terms = max(len(base.value.num.terms), len(base.value.den.terms))
        est = 1
        for i in range(1, terms):
            est = est * (abs(expo) + i) // i
            if est > MAX_POWER_TERMS:
                _, _, line, column = cur.tokens[hat]
                raise ParseError(f"power estimated at over {MAX_POWER_TERMS} terms", line, column)
        # 30103/100000 digits per bit: log10(2) to five places
        if abs(expo) * _coefficient_bits(base.value) * 30103 > MAX_POWER_DIGITS * 100000:
            _, _, line, column = cur.tokens[hat]
            raise ParseError(f"power estimated at over {MAX_POWER_DIGITS} digits", line, column)
        return base**expo
    return base


def _coefficient_bits(value: RatFunc) -> int:
    """Bits per unit of exponent of the coefficients of a power, estimated.

    With S the sum of the absolute numerators of a polynomial's coefficients
    and L their common denominator, its n-th power has coefficients of
    numerator at most (L*S)^n and denominator at most L^n.
    """
    return max(
        max(sum(abs(c.numerator) for c in p.terms.values()) - 1, 0).bit_length()
        + (lcm(*(c.denominator for c in p.terms.values())) - 1).bit_length()
        for p in (value.num, value.den)
    )


def _signed_int(cur: _Cursor) -> int:
    sign = 1
    while True:
        if cur.accept("-"):
            sign = -sign
        elif not cur.accept("+"):
            return sign * int(cur.take("int"))


def _atom(cur: _Cursor, pres: Presentation) -> Element:
    kind, text, line, column = cur.tokens[cur.pos]
    if kind == "int":
        cur.pos += 1
        return pres.const(int(text))
    if text == "(":
        cur.pos += 1
        inner = _expr(cur, pres)
        cur.expect(")")
        return inner
    if kind != "name":
        raise ParseError(f"expected an expression, found {text or 'end of input'!r}", line, column)
    cur.pos += 1
    if text == "s":
        cur.expect("(")
        inner = _expr(cur, pres)
        cur.expect(",")
        k = _signed_int(cur)
        cur.expect(")")
        return inner.sigma(k)
    if text == "wp":
        cur.expect("(")
        inner = _expr(cur, pres)
        cur.expect(")")
        return inner.wp()
    if not pres.has_gen(text):
        raise SemanticError(f"unknown generator {text!r}")
    shift = 0
    if cur.accept("["):
        shift = _signed_int(cur)
        cur.expect("]")
        if not pres.spec(text).is_free:
            raise SemanticError(f"generator {text!r} is not free; shifts need s(...)")
    if cur.atoms_pres is not pres:
        cur.atoms = {}
        cur.atoms_pres = pres
    key = (text, shift)
    atom = cur.atoms.get(key)
    if atom is None:
        atom = cur.atoms[key] = pres.gen(text, shift)
    return atom


def _angle(cur: _Cursor) -> CircleValue:
    num = _signed_int(cur)
    if cur.accept("/"):
        den = _signed_int(cur)
        if den == 0:
            _, _, line, column = cur.tokens[cur.pos]
            raise ParseError("zero denominator in angle", line, column)
        return CircleValue(Fraction(num, den))
    return CircleValue(Fraction(num))


@record
class Document:
    """A parsed job document: a presentation plus typed statements."""

    presentation: Presentation
    twisted: tuple[Element, Element] | None = None
    mult: tuple[Element, int] | None = None
    blocks: list[list[str]] | None = None
    summands: dict[int, Element] = field(default_factory=dict)
    rewrites: dict[int, Element] = field(default_factory=dict)
    witnesses: dict[int, Element] = field(default_factory=dict)
    target: Element | None = None
    assignments: list[tuple[Element, CircleValue]] = field(default_factory=list)
    queries: list[tuple[Element, CircleValue | None]] = field(default_factory=list)
    tuple_elems: list[Element] | None = None
    height: int | None = None
    subfield: list[str] | None = None
    torsor: Element | None = None
    r_values: dict[str, CircleValue] = field(default_factory=dict)
    closure: Element | None = None
    source: str = ""


def parse_document(text: str) -> Document:
    cur = _Cursor(tokenize(text))
    pres = Presentation.empty()
    doc = Document(pres, source=text)

    def current() -> Presentation:
        return doc.presentation

    tokens = cur.tokens
    while tokens[cur.pos][0] != "end":
        word = cur.take("name")
        if word == "gen":
            name = cur.take("name")
            if name in _RESERVED:
                raise SemanticError(f"generator name {name!r} is reserved")
            kind = cur.take("name")
            if kind == "free":
                doc.presentation, _ = current().with_free(name)
            elif kind == "affine":
                cur.expect("linear")
                cur.expect("=")
                linear = _expr(cur, current())
                cur.expect("const")
                cur.expect("=")
                const = _expr(cur, current())
                try:
                    doc.presentation, _ = current().with_affine(name, linear, const)
                except PresentationError as exc:
                    raise SemanticError(str(exc)) from exc
            else:
                _, _, line, column = tokens[cur.pos - 1]
                raise ParseError("expected 'free' or 'affine'", line, column)
        elif word == "twisted":
            cur.expect("e1")
            cur.expect("=")
            e1 = _expr(cur, current())
            cur.expect(",")
            cur.expect("e2")
            cur.expect("=")
            e2 = _expr(cur, current())
            doc.twisted = (e1, e2)
        elif word == "mult":
            cur.expect("e")
            cur.expect("=")
            e = _expr(cur, current())
            cur.expect(",")
            cur.expect("z")
            cur.expect("=")
            z = _signed_int(cur)
            doc.mult = (e, z)
        elif word == "system":
            cur.expect("blocks")
            blocks = [[cur.take("name")]]
            while True:
                if cur.accept(","):
                    blocks[-1].append(cur.take("name"))
                elif cur.accept("|"):
                    blocks.append([cur.take("name")])
                else:
                    break
            doc.blocks = blocks
        elif word == "summand":
            idx = int(cur.take("int"))
            cur.expect("=")
            doc.summands[idx] = _expr(cur, current())
        elif word == "rewrite":
            idx = int(cur.take("int"))
            cur.expect("=")
            doc.rewrites[idx] = _expr(cur, current())
        elif word == "witness":
            idx = int(cur.take("int"))
            cur.expect("=")
            doc.witnesses[idx] = _expr(cur, current())
        elif word == "target":
            doc.target = _expr(cur, current())
        elif word == "assign":
            elem = _expr(cur, current())
            cur.expect("=")
            doc.assignments.append((elem, _angle(cur)))
        elif word == "query":
            elem = _expr(cur, current())
            if cur.accept("free"):
                doc.queries.append((elem, None))
            else:
                cur.expect("=")
                doc.queries.append((elem, _angle(cur)))
        elif word == "tuple":
            elems = [_expr(cur, current())]
            while cur.accept(","):
                elems.append(_expr(cur, current()))
            doc.tuple_elems = elems
        elif word == "height":
            doc.height = int(cur.take("int"))
        elif word == "subfield":
            names = [cur.take("name")]
            while cur.accept(","):
                names.append(cur.take("name"))
            for n in names:
                if not current().has_gen(n):
                    raise SemanticError(f"unknown generator {n!r} in subfield")
            doc.subfield = names
        elif word == "torsor":
            doc.torsor = _expr(cur, current())
        elif word in ("r12", "r13", "r23"):
            cur.expect("=")
            doc.r_values[word] = _angle(cur)
        elif word == "closure":
            doc.closure = _expr(cur, current())
        else:
            _, _, line, column = tokens[cur.pos - 1]
            raise ParseError(f"unknown statement {word!r}", line, column)
        cur.expect(";")
    return doc


# -- printing (round-trip support) ------------------------------------------------


def print_element(elem: Element) -> str:
    return print_value(elem.value)


def print_value(value) -> str:
    """A polynomial prints as its ``repr``; a fraction as ``(num)/(den)``."""
    if isinstance(value, RatFunc):
        if not value.is_polynomial():
            return f"({value.num!r})/({value.den!r})"
        value = value.num
    return repr(value)
