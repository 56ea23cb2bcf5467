"""Textual input language: presentations, expressions, job documents.

The grammar is small and line-oriented; statements end with semicolons and
``#`` starts a comment.  Expressions support integers, field operations
``+ - * / ^``, parentheses, generator names, ``g[k]`` for shifted free
generators, ``s(expr, k)`` for the k-th automorphism power, and
``wp(expr)`` for sigma(x) - x.

    gen g free;
    gen a1 affine linear=g const=g;
    twisted e1 = 1, e2 = a1;

Errors carry positions: syntax problems report line and column, semantic
problems name the offending generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .field import Element, Presentation, PresentationError
from .ratfunc import CircleValue, RatFunc


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"syntax error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SemanticError(ValueError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "int", "punct", "end"
    text: str
    line: int
    column: int


_PUNCT = ("[", "]", "(", ")", ",", ";", "=", "+", "-", "*", "/", "^", "|", ":")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            startcol = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("int", text[start:i], line, startcol))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            startcol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("name", text[start:i], line, startcol))
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None


_RESERVED = {"s", "wp", "free", "affine", "gen", "linear", "const"}


def _expr(cur: _Cursor, pres: Presentation) -> Element:
    total = _term(cur, pres)
    while True:
        if cur.accept("punct", "+"):
            total = total + _term(cur, pres)
        elif cur.accept("punct", "-"):
            total = total - _term(cur, pres)
        else:
            return total


def _term(cur: _Cursor, pres: Presentation) -> Element:
    total = _factor(cur, pres)
    while True:
        if cur.accept("punct", "*"):
            total = total * _factor(cur, pres)
        elif cur.accept("punct", "/"):
            tok = cur.peek()
            divisor = _factor(cur, pres)
            if divisor.is_zero():
                raise ParseError("division by zero", tok.line, tok.column)
            total = total / divisor
        else:
            return total


def _factor(cur: _Cursor, pres: Presentation) -> Element:
    if cur.accept("punct", "-"):
        return -_factor(cur, pres)
    return _power(cur, pres)


def _power(cur: _Cursor, pres: Presentation) -> Element:
    base = _atom(cur, pres)
    if cur.accept("punct", "^"):
        expo = _signed_int(cur)
        if expo < 0 and base.is_zero():
            tok = cur.peek()
            raise ParseError("zero to a negative power", tok.line, tok.column)
        return base**expo
    return base


def _signed_int(cur: _Cursor) -> int:
    sign = 1
    while True:
        if cur.accept("punct", "-"):
            sign = -sign
        elif cur.accept("punct", "+"):
            pass
        else:
            break
    tok = cur.expect("int")
    return sign * int(tok.text)


def _atom(cur: _Cursor, pres: Presentation) -> Element:
    tok = cur.peek()
    if tok.kind == "int":
        cur.next()
        return pres.const(int(tok.text))
    if cur.accept("punct", "("):
        inner = _expr(cur, pres)
        cur.expect("punct", ")")
        return inner
    if tok.kind == "name":
        cur.next()
        if tok.text == "s":
            cur.expect("punct", "(")
            inner = _expr(cur, pres)
            cur.expect("punct", ",")
            k = _signed_int(cur)
            cur.expect("punct", ")")
            return inner.sigma(k)
        if tok.text == "wp":
            cur.expect("punct", "(")
            inner = _expr(cur, pres)
            cur.expect("punct", ")")
            return inner.wp()
        name = tok.text
        if not pres.has_gen(name):
            raise SemanticError(f"unknown generator {name!r}")
        if cur.accept("punct", "["):
            shift = _signed_int(cur)
            cur.expect("punct", "]")
            if not pres.spec(name).is_free:
                raise SemanticError(f"generator {name!r} is not free; shifts need s(...)")
            return pres.gen(name, shift)
        return pres.gen(name)
    raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.line, tok.column)


def _angle(cur: _Cursor) -> CircleValue:
    num = _signed_int(cur)
    if cur.accept("punct", "/"):
        den = _signed_int(cur)
        if den == 0:
            tok = cur.peek()
            raise ParseError("zero denominator in angle", tok.line, tok.column)
        return CircleValue(Fraction(num, den))
    return CircleValue(Fraction(num))


@dataclass
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

    while cur.peek().kind != "end":
        tok = cur.expect("name")
        word = tok.text
        if word == "gen":
            name_tok = cur.expect("name")
            name = name_tok.text
            if name in _RESERVED:
                raise SemanticError(f"generator name {name!r} is reserved")
            kind = cur.expect("name")
            if kind.text == "free":
                doc.presentation, _ = current().with_free(name)
            elif kind.text == "affine":
                cur.expect("name", "linear")
                cur.expect("punct", "=")
                linear = _expr(cur, current())
                cur.expect("name", "const")
                cur.expect("punct", "=")
                const = _expr(cur, current())
                try:
                    doc.presentation, _ = current().with_affine(name, linear, const)
                except PresentationError as exc:
                    raise SemanticError(str(exc)) from exc
            else:
                raise ParseError("expected 'free' or 'affine'", kind.line, kind.column)
        elif word == "twisted":
            cur.expect("name", "e1")
            cur.expect("punct", "=")
            e1 = _expr(cur, current())
            cur.expect("punct", ",")
            cur.expect("name", "e2")
            cur.expect("punct", "=")
            e2 = _expr(cur, current())
            doc.twisted = (e1, e2)
        elif word == "mult":
            cur.expect("name", "e")
            cur.expect("punct", "=")
            e = _expr(cur, current())
            cur.expect("punct", ",")
            cur.expect("name", "z")
            cur.expect("punct", "=")
            z = _signed_int(cur)
            doc.mult = (e, z)
        elif word == "system":
            cur.expect("name", "blocks")
            blocks = [[cur.expect("name").text]]
            while True:
                if cur.accept("punct", ","):
                    blocks[-1].append(cur.expect("name").text)
                elif cur.accept("punct", "|"):
                    blocks.append([cur.expect("name").text])
                else:
                    break
            doc.blocks = blocks
        elif word == "summand":
            idx = int(cur.expect("int").text)
            cur.expect("punct", "=")
            doc.summands[idx] = _expr(cur, current())
        elif word == "rewrite":
            idx = int(cur.expect("int").text)
            cur.expect("punct", "=")
            doc.rewrites[idx] = _expr(cur, current())
        elif word == "witness":
            idx = int(cur.expect("int").text)
            cur.expect("punct", "=")
            doc.witnesses[idx] = _expr(cur, current())
        elif word == "target":
            doc.target = _expr(cur, current())
        elif word == "assign":
            elem = _expr(cur, current())
            cur.expect("punct", "=")
            doc.assignments.append((elem, _angle(cur)))
        elif word == "query":
            elem = _expr(cur, current())
            if cur.accept("name", "free"):
                doc.queries.append((elem, None))
            else:
                cur.expect("punct", "=")
                doc.queries.append((elem, _angle(cur)))
        elif word == "tuple":
            elems = [_expr(cur, current())]
            while cur.accept("punct", ","):
                elems.append(_expr(cur, current()))
            doc.tuple_elems = elems
        elif word == "height":
            doc.height = int(cur.expect("int").text)
        elif word == "subfield":
            names = [cur.expect("name").text]
            while cur.accept("punct", ","):
                names.append(cur.expect("name").text)
            for n in names:
                if not current().has_gen(n):
                    raise SemanticError(f"unknown generator {n!r} in subfield")
            doc.subfield = names
        elif word == "torsor":
            doc.torsor = _expr(cur, current())
        elif word in ("r12", "r13", "r23"):
            cur.expect("punct", "=")
            doc.r_values[word] = _angle(cur)
        elif word == "closure":
            doc.closure = _expr(cur, current())
        else:
            raise ParseError(f"unknown statement {word!r}", tok.line, tok.column)
        cur.expect("punct", ";")
    return doc


# -- printing (round-trip support) ------------------------------------------------


def print_presentation(pres: Presentation) -> str:
    lines = []
    for g in pres.gens:
        if g.is_free:
            lines.append(f"gen {g.name} free;")
        else:
            lines.append(
                f"gen {g.name} affine linear={print_value(g.kind.linear)} "
                f"const={print_value(g.kind.constant)};"
            )
    return "\n".join(lines)


def print_element(elem: Element) -> str:
    return print_value(elem.value)


def print_value(value) -> str:
    """A polynomial prints as its ``repr``; a fraction as ``(num)/(den)``."""
    if isinstance(value, RatFunc):
        if not value.is_polynomial():
            return f"({value.num!r})/({value.den!r})"
        value = value.num
    return repr(value)
