"""Scenario files: the sectioned text format describing one chart action.

A scenario fixes the graded ring, its relations, the graded Lie algebra
with brackets and the derivation table.  Parsing gives line/column
diagnostics.  Semantic validation reuses the derivation action validator;
its errors carry no line but name the offending vector, generator,
relation or pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from uhat.rings import EXP_BITS, GradedRing, Ideal, PresentedAlgebra
from uhat.lie import DerivationAction, GradedLieAlgebra


class ScenarioError(Exception):
    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# polynomial expressions


class _Tokens:
    """Cursor over one expression; `offset` is where it starts in its source line."""

    def __init__(self, text, line=None, offset=0):
        self.text = text
        self.line = line
        self.offset = offset
        self.pos = 0

    def error(self, message, pos=None):
        """Raise at `pos` (default: the cursor), as a column of the source line."""
        raise ScenarioError(message, self.line, self.offset + (self.pos if pos is None else pos) + 1)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_name(self):
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_@"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def take_int(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def take_rational(self):
        """An integer or a rational p/q at the cursor; refuses a zero denominator."""
        num = self.take_int()
        if self.peek() != "/":
            return Fraction(num)
        self.pos += 1
        start = self.pos
        den = self.take_int()
        if den == 0:
            self.error("zero denominator", start)
        return Fraction(num, den)


def parse_polynomial(text, ring, line=None, offset=0):
    """Parse infix polynomial syntax: +, -, *, ^ and rationals p/q.

    `offset` is the index of `text` in its source line, so diagnostics
    give columns of the line.  A result with an exponent of 2**EXP_BITS or
    more is refused, as the ring cannot pack it.
    """
    toks = _Tokens(text, line, offset)
    result = _expr(toks, ring)
    if toks.peek() is not None:
        toks.error(f"trailing input {toks.text[toks.pos:]!r}")
    top = max((e for m in result.terms for e in m), default=0)
    if top >> EXP_BITS:
        toks.error(f"exponent {top} is not below 2**{EXP_BITS}", 0)
    return result


def _atom(toks, ring):
    c = toks.peek()
    if c is None:
        toks.error("unexpected end of expression")
    if c == "(":
        toks.pos += 1
        e = _expr(toks, ring)
        if toks.peek() != ")":
            toks.error("expected ')'")
        toks.pos += 1
        return e
    if c.isdecimal():
        return ring.const(toks.take_rational())
    if c.isalpha() or c in "_@":
        start = toks.pos
        name = toks.take_name()
        if name not in ring._index:
            toks.error(f"unknown name {name!r}", start)
        return ring.var(name)
    toks.error(f"unexpected character {c!r}")


def _factor(toks, ring):
    base = _atom(toks, ring)
    if toks.peek() == "^":
        toks.pos += 1
        if toks.peek() is None or not toks.peek().isdecimal():
            toks.error("expected an integer exponent")
        return base ** toks.take_int()
    return base


def _term(toks, ring):
    out = _factor(toks, ring)
    while toks.peek() == "*":
        toks.pos += 1
        out = out * _factor(toks, ring)
    return out


def _expr(toks, ring):
    sign = 1
    if toks.peek() == "-":
        toks.pos += 1
        sign = -1
    elif toks.peek() == "+":
        toks.pos += 1
    out = _term(toks, ring) * sign
    while toks.peek() in ("+", "-"):
        op = toks.peek()
        toks.pos += 1
        nxt = _term(toks, ring)
        out = out + nxt if op == "+" else out - nxt
    return out


# ---------------------------------------------------------------------------
# the scenario structure


@dataclass
class Scenario:
    ring: GradedRing
    relations: list  # (source line, polynomial) per relation
    lie: GradedLieAlgebra
    action_table: dict  # vector name -> {generator: polynomial}

    def build(self):
        """Construct and validate the derivation action; raise on violations."""
        algebra = PresentedAlgebra(self.ring, Ideal(self.ring, [rel for _, rel in self.relations]))
        if self.lie.weights:
            # a graded action needs weight-homogeneous relations: every
            # weight component of a generator must itself lie in the ideal
            for src, rel in self.relations:
                for w, comp in rel.weight_decompose().items():
                    if not algebra.is_zero(comp):
                        raise ScenarioError(
                            f"relation {src!r} is not weight-homogeneous: its "
                            f"weight {w} component is not in the ideal"
                        )
        action = DerivationAction(algebra, self.lie, self.action_table)
        violations = action.validate()
        if violations:
            first = violations[0]
            raise ScenarioError(f"invalid scenario: {first}")
        return action


def parse_scenario(text):
    """Parse the sectioned scenario format with positioned diagnostics."""
    section = None
    variables = []
    order, order_line = "degrevlex", None
    relations = []
    lie_weights = []
    lie_basis = []
    brackets = {}
    action_table = {}
    section_lines = {}  # section -> the line of its header

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("ring", "relations", "lie", "action"):
                raise ScenarioError(f"unknown section [{section}]", lineno)
            if section in section_lines:
                raise ScenarioError(f"duplicate section [{section}]", lineno)
            section_lines[section] = lineno
            continue
        if section is None:
            raise ScenarioError("content before the first section", lineno)
        if section == "ring":
            if line.lower().startswith("variables:"):
                body = line.split(":", 1)[1]
                for chunk in body.split(","):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    if ":" not in chunk:
                        raise ScenarioError(f"expected name:weight, got {chunk!r}", lineno)
                    name, wtext = chunk.split(":", 1)
                    name = name.strip()
                    try:
                        w = int(wtext.strip())
                    except ValueError:
                        raise ScenarioError(f"bad weight {wtext.strip()!r}", lineno)
                    if w > 0:
                        raise ScenarioError(
                            f"variable {name!r} has positive weight {w}; chart weights must be <= 0",
                            lineno,
                        )
                    if any(name == n for n, _ in variables):
                        raise ScenarioError(f"duplicate variable {name!r}", lineno)
                    _check_name(name, "variable", lineno)
                    variables.append((name, w))
            elif line.lower().startswith("order:"):
                if order_line is not None:
                    raise ScenarioError("duplicate ring order", lineno)
                order, order_line = line.split(":", 1)[1].strip(), lineno
                if order.startswith("pot"):  # only module computations build position rings
                    raise ScenarioError(f"unknown monomial order {order!r}", lineno)
            else:
                raise ScenarioError(f"unexpected ring entry {line!r}", lineno)
        elif section == "relations":
            relations.append((*_expression(raw, 0), lineno))
        elif section == "lie":
            if line.lower().startswith("weight "):
                head, _, names = line.partition(":")
                try:
                    w = int(head.split()[1])
                except (IndexError, ValueError):
                    raise ScenarioError("expected 'weight <int>: names'", lineno)
                block = [n.strip() for n in names.split(",") if n.strip()]
                for name in block:
                    _check_name(name, "basis vector", lineno)
                lie_weights.append(w)
                lie_basis.append(block)
            elif line.lower().startswith("bracket"):
                body = line[len("bracket") :].strip()
                if "=" not in body or not body.startswith("["):
                    raise ScenarioError("expected 'bracket [a, b] = combination'", lineno)
                pair = body.partition("=")[0].strip()
                if not (pair.startswith("[") and pair.endswith("]")):
                    raise ScenarioError("expected '[a, b]' on the left", lineno)
                names = [n.strip() for n in pair[1:-1].split(",")]
                if len(names) != 2:
                    raise ScenarioError("brackets take exactly two arguments", lineno)
                if (names[0], names[1]) in brackets or (names[1], names[0]) in brackets:
                    raise ScenarioError(f"duplicate bracket [{names[0]}, {names[1]}]", lineno)
                brackets[(names[0], names[1])] = (*_expression(raw, raw.index("=") + 1), lineno)
            else:
                raise ScenarioError(f"unexpected lie entry {line!r}", lineno)
        elif section == "action":
            if "=" not in line or "." not in line.split("=", 1)[0]:
                raise ScenarioError("expected 'vector.generator = polynomial'", lineno)
            vec, _, gen = line.partition("=")[0].strip().partition(".")
            vec, gen = vec.strip(), gen.strip()
            action_table.setdefault(vec, {})
            if gen in action_table[vec]:
                raise ScenarioError(f"duplicate action entry {vec}.{gen}", lineno)
            action_table[vec][gen] = (*_expression(raw, raw.index("=") + 1), lineno)

    if not variables:
        raise ScenarioError("missing [ring] variables")
    try:
        ring = GradedRing([n for n, _ in variables], [w for _, w in variables], order)
    except ValueError as exc:
        raise ScenarioError(f"bad monomial order {order!r}: {exc}", order_line)
    rels = [(src, parse_polynomial(src, ring, lineno, offset)) for src, offset, lineno in relations]
    # a combination is a linear polynomial in the basis vectors
    basis_names = list(dict.fromkeys(n for block in lie_basis for n in block))
    basis = GradedRing(basis_names, [0] * len(basis_names))
    for (a, b), (src, offset, lineno) in brackets.items():
        for name in (a, b):
            if name not in basis._index:
                raise ScenarioError(f"unknown basis vector {name!r} in bracket", lineno)
        combo = parse_polynomial(src, basis, lineno, offset)
        if any(sum(m) != 1 for m in combo.terms):
            message = f"bracket combination {src!r} is not linear in the basis vectors"
            raise ScenarioError(message, lineno, offset + 1)
        brackets[(a, b)] = {basis.names[m.index(1)]: c for m, c in combo.terms.items()}
    try:
        lie = GradedLieAlgebra(lie_weights, lie_basis, brackets)
    except ValueError as exc:
        raise ScenarioError(f"bad lie block: {exc}", section_lines.get("lie"))
    table = {}
    for vec, row in action_table.items():
        if vec not in lie._index:
            first_line = next(iter(row.values()))[2]
            raise ScenarioError(f"unknown basis vector {vec!r} in action table", first_line)
        table[vec] = {}
        for gen, (src, offset, lineno) in row.items():
            if gen not in ring._index:
                raise ScenarioError(f"unknown ring generator {gen!r}", lineno)
            table[vec][gen] = parse_polynomial(src, ring, lineno, offset)
    return Scenario(ring, rels, lie, table)


def _check_name(name, kind, lineno):
    """Refuse a name expressions cannot read back: a letter or '_', then letters, digits or '_'."""
    if not (name.replace("_", "a").isalnum() and (name[0] == "_" or name[0].isalpha())):
        raise ScenarioError(
            f"{kind} name {name!r} must be a letter or '_' followed by letters, digits or '_'",
            lineno,
        )


def _expression(raw, start):
    """The expression in `raw[start:]`, comment and blanks removed, and its offset in `raw`."""
    text = raw.split("#", 1)[0][start:]
    return text.strip(), start + len(text) - len(text.lstrip())


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    return parse_scenario(text)
