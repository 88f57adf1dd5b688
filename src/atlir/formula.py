"""Formula AST, concrete-syntax parser, and derived-operator rewriting.

Concrete syntax::

    phi  := phi '<->' phi            (lowest precedence, left associative)
          | phi '->' phi             (right associative)
          | phi '|' phi
          | phi '&' phi              (highest binary precedence)
          | '!' phi
          | '<<' agents '>>' path    (coalition "can enforce")
          | '[[' agents ']]' path    (coalition "cannot avoid")
          | 'true' | identifier | '(' phi ')'
    path := 'X' phi | 'F' phi | 'G' phi | '(' phi 'U' phi ')' | '(' phi 'W' phi ')'

Identifiers are ``[A-Za-z_][A-Za-z0-9_]*``; ``true`` is reserved, and the
letters X/F/G/U/W act as operators where a path formula is expected.
Unary operators bind tightest.  Coalitions must be non-empty groups of
declared agents; atoms must be declared propositions of the model.

:func:`normalize` reduces every formula to the core the checker evaluates
(true, atoms, negation, disjunction, coalition-next, coalition-until) and
rejects the operators outside the supported fragment: greatest-fixpoint
objectives cannot be built backwards from target states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    FormulaSyntaxError,
    UnknownAgent,
    UnknownProposition,
    UnsupportedOperator,
)


@dataclass(frozen=True)
class Formula:
    """Base class of all AST nodes.

    A node computes its hash once, when it is built: :func:`normalize`
    shares sub-formulas in a DAG, and the generated dataclass hash would walk
    it as a tree.  Children are built first, so their hashes are ready and
    hashing never recurses.
    """

    def __post_init__(self):
        fields = self.__dict__  # only the fields are in it yet
        fields["_hash"] = hash(tuple(fields.values()))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return _same(self, other)

    def __reduce__(self):
        # Rebuilt from the fields alone: string hashes differ between processes.
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))


def _same(f, g):
    """Structural equality that compares each pair of nodes once.

    Two separately built DAGs share no node, so the generated dataclass
    equality, which follows both as trees, would be exponential in their
    ``<->`` depth.  Nodes of another type or hash differ at once.
    """
    done = set()
    todo = [(f, g)]
    while todo:
        a, b = todo.pop()
        if a is b or (id(a), id(b)) in done:
            continue
        if type(a) is not type(b) or a._hash != b._hash:
            return False
        done.add((id(a), id(b)))
        for name in a.__match_args__:
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(x, Formula):
                todo.append((x, y))
            elif x != y:
                return False
    return True


def _node(cls):
    """A frozen dataclass node with the cached hash and the DAG equality of
    :class:`Formula`."""
    cls = dataclass(frozen=True, eq=False)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class TrueConst(Formula):
    pass


TRUE = TrueConst()


@_node
class Atom(Formula):
    name: str


@_node
class Not(Formula):
    sub: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class CanNext(Formula):
    coalition: tuple
    sub: Formula


@_node
class CanUntil(Formula):
    coalition: tuple
    lhs: Formula
    rhs: Formula


@_node
class CanEventually(Formula):
    coalition: tuple
    sub: Formula


@_node
class CanGlobally(Formula):
    coalition: tuple
    sub: Formula


@_node
class CanWeakUntil(Formula):
    coalition: tuple
    lhs: Formula
    rhs: Formula


@_node
class MustNext(Formula):
    coalition: tuple
    sub: Formula


@_node
class MustEventually(Formula):
    coalition: tuple
    sub: Formula


@_node
class MustGlobally(Formula):
    coalition: tuple
    sub: Formula


@_node
class MustUntil(Formula):
    coalition: tuple
    lhs: Formula
    rhs: Formula


@_node
class MustWeakUntil(Formula):
    coalition: tuple
    lhs: Formula
    rhs: Formula


CORE_NODES = (TrueConst, Atom, Not, Or, CanNext, CanUntil)

# strategic operator class <-> (opening brace, temporal operator letter)
_STRATEGIC = {
    CanNext: ("<<", "X"), CanEventually: ("<<", "F"), CanGlobally: ("<<", "G"),
    CanUntil: ("<<", "U"), CanWeakUntil: ("<<", "W"),
    MustNext: ("[[", "X"), MustEventually: ("[[", "F"), MustGlobally: ("[[", "G"),
    MustUntil: ("[[", "U"), MustWeakUntil: ("[[", "W"),
}
_STRATEGIC_CLASS = {key: cls for cls, key in _STRATEGIC.items()}


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------

def _neg(f: Formula) -> Formula:
    return f.sub if isinstance(f, Not) else Not(f)


def normalize(f: Formula) -> Formula:
    """Rewrite to the core fragment; reject unsupported operators.

    ``F`` becomes ``true U``, the ``[[..]]`` duals are pushed through
    negation, and the binary Boolean connectives are expanded into
    negation/disjunction.  ``<<..>> G``, ``<<..>> W``, ``[[..]] U`` and
    ``[[..]] F`` have no least-fixpoint formulation and raise
    :class:`UnsupportedOperator`.

    Each distinct node is rewritten once per call, so a DAG, such as an
    already normalized nested ``<->``, costs time linear in its nodes.
    """
    memo = {}

    def norm(f):
        if isinstance(f, (TrueConst, Atom)):
            return f
        key = id(f)
        g = memo.get(key)
        if g is not None:
            return g
        if isinstance(f, Not):
            g = Not(norm(f.sub))
        elif isinstance(f, Or):
            g = Or(norm(f.left), norm(f.right))
        elif isinstance(f, And):
            g = Not(Or(_neg(norm(f.left)), _neg(norm(f.right))))
        elif isinstance(f, Implies):
            g = Or(_neg(norm(f.left)), norm(f.right))
        elif isinstance(f, Iff):
            left, right = norm(f.left), norm(f.right)
            both = Not(Or(_neg(left), _neg(right)))
            neither = Not(Or(left, right))
            g = Or(both, neither)
        elif isinstance(f, CanNext):
            g = CanNext(f.coalition, norm(f.sub))
        elif isinstance(f, CanUntil):
            g = CanUntil(f.coalition, norm(f.lhs), norm(f.rhs))
        elif isinstance(f, CanEventually):
            g = CanUntil(f.coalition, TRUE, norm(f.sub))
        elif isinstance(f, MustNext):
            g = Not(CanNext(f.coalition, _neg(norm(f.sub))))
        elif isinstance(f, MustGlobally):
            g = Not(CanUntil(f.coalition, TRUE, _neg(norm(f.sub))))
        elif isinstance(f, MustWeakUntil):
            # not (a W b)  ==  (not b) U (not a and not b)
            lhs, rhs = norm(f.lhs), norm(f.rhs)
            g = Not(CanUntil(f.coalition, _neg(rhs), Not(Or(lhs, rhs))))
        elif type(f) in (CanGlobally, CanWeakUntil, MustUntil, MustEventually):
            brace, op = _STRATEGIC[type(f)]
            raise UnsupportedOperator("%s..%s %s is outside the supported fragment"
                                      % (brace, ">>" if brace == "<<" else "]]", op))
        else:
            raise UnsupportedOperator("cannot normalize %r" % (f,))
        memo[key] = g
        return g

    return norm(f)


def is_normalized(f: Formula) -> bool:
    return all(isinstance(g, CORE_NODES) for g in _nodes(f))


def atoms(f: Formula) -> frozenset:
    """All proposition names occurring in the formula."""
    return frozenset(g.name for g in _nodes(f) if isinstance(g, Atom))


def coalitions(f: Formula) -> frozenset:
    """All coalition tuples occurring in the formula."""
    return frozenset(g.coalition for g in _nodes(f) if hasattr(g, "coalition"))


def _nodes(f: Formula):
    """Every distinct node of ``f`` once (iterative): a normalized formula
    is a DAG with exponentially many paths in its ``<->`` depth."""
    seen = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if id(g) not in seen:
            seen.add(id(g))
            yield g
            todo.extend(_children(g))


def _children(f: Formula):
    for name in ("sub", "left", "right", "lhs", "rhs"):
        child = getattr(f, name, None)
        if child is not None:
            yield child


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_IFF, _PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = range(6)


def to_text(f: Formula) -> str:
    """Emit the concrete syntax; ``parse(to_text(f)) == f`` for every AST
    within the parser's nesting bounds."""
    return _print(f, 0)


def _print(f, parent_prec):
    text, prec = _print_prec(f)
    if prec < parent_prec:
        return "(" + text + ")"
    return text


def _print_prec(f):
    if isinstance(f, TrueConst):
        return "true", _PREC_ATOM
    if isinstance(f, Atom):
        return f.name, _PREC_ATOM
    if isinstance(f, Not):
        return "!" + _print(f.sub, _PREC_UNARY), _PREC_UNARY
    if isinstance(f, And):
        # left associative: wrap a right child of equal precedence
        return ("%s & %s" % (_print(f.left, _PREC_AND),
                             _print(f.right, _PREC_AND + 1)), _PREC_AND)
    if isinstance(f, Or):
        return ("%s | %s" % (_print(f.left, _PREC_OR),
                             _print(f.right, _PREC_OR + 1)), _PREC_OR)
    if isinstance(f, Implies):
        # right associative: wrap a left child of equal precedence
        return ("%s -> %s" % (_print(f.left, _PREC_IMPLIES + 1),
                              _print(f.right, _PREC_IMPLIES)), _PREC_IMPLIES)
    if isinstance(f, Iff):
        return ("%s <-> %s" % (_print(f.left, _PREC_IFF),
                               _print(f.right, _PREC_IFF + 1)), _PREC_IFF)
    if type(f) not in _STRATEGIC:
        raise ValueError("cannot print %r" % (f,))
    brace, op = _STRATEGIC[type(f)]
    head = "%s%s%s" % (brace, ",".join(f.coalition), ">>" if brace == "<<" else "]]")
    if op in "XFG":
        return ("%s %s %s" % (head, op, _print(f.sub, _PREC_UNARY)), _PREC_UNARY)
    return ("%s (%s %s %s)" % (head, _print(f.lhs, 0), op, _print(f.rhs, 0)),
            _PREC_UNARY)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<implies>->)
  | (?P<ldouble><<)
  | (?P<rdouble>>>)
  | (?P<lbrack>\[\[)
  | (?P<rbrack>\]\])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<not>!)
  | (?P<and>&)
  | (?P<or>\|)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError("unexpected character %r" % text[pos], pos)
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


# Normalisation, hashing, printing and evaluation recurse once or more per
# operator level, so without bounds a deep formula exhausts the interpreter's
# stack.  ``parse`` bounds two things.  MAX_NESTING counts the recursive
# descents of the parser: '!', '(', '->' and the strategic operators, whose
# levels cost up to 8 frames each downstream ('[[..]] W').  MAX_HEIGHT counts
# every operator level of the result, so it also bounds chains of '&', '|'
# and '<->', which the parser reads in a loop.  A chain level costs 2-3
# frames, so the deepest formula within both bounds (64 '[[..]] W' levels
# over a 64-level chain) needs about 650 frames, leaving room under Python's
# default limit of 1000 for the caller.
MAX_NESTING = 64
MAX_HEIGHT = 128


def _height(f: Formula) -> int:
    """Operator levels above the deepest leaf (iterative)."""
    best = 0
    todo = [(f, 0)]
    while todo:
        g, level = todo.pop()
        best = max(best, level)
        todo.extend((child, level + 1) for child in _children(g))
    return best


class _Parser:
    def __init__(self, text, model, macros):
        self.tokens = _tokenize(text)
        self.i = 0
        self.model = model
        self.macros = macros or {}
        self.depth = 0  # open recursive descents: '!', '(', '->', operands

    def descend(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(
                "formula nests '!', '(', '->' or strategic operators deeper"
                " than %d levels" % MAX_NESTING, pos)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError("expected %s, found %r" % (what, tok[1]), tok[2])
        return tok

    def parse(self):
        f = self.parse_iff()
        tok = self.peek()
        if tok[0] != "eof":
            raise FormulaSyntaxError("unexpected trailing input %r" % tok[1], tok[2])
        # Every operator level takes a token, so short formulas need no walk.
        if len(self.tokens) > MAX_HEIGHT and _height(f) > MAX_HEIGHT:
            raise FormulaSyntaxError(
                "formula is deeper than %d operator levels (each operator of a"
                " chain of '&', '|' or '<->' is one level)" % MAX_HEIGHT, 0)
        return f

    def parse_iff(self):
        f = self.parse_implies()
        while self.peek()[0] == "iff":
            self.next()
            f = Iff(f, self.parse_implies())
        return f

    def parse_implies(self):
        f = self.parse_or()
        if self.peek()[0] == "implies":
            self.descend(self.next()[2])
            f = Implies(f, self.parse_implies())
            self.depth -= 1
        return f

    def parse_or(self):
        f = self.parse_and()
        while self.peek()[0] == "or":
            self.next()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self):
        f = self.parse_unary()
        while self.peek()[0] == "and":
            self.next()
            f = And(f, self.parse_unary())
        return f

    def parse_unary(self):
        kind, text, pos = self.peek()
        if kind in ("not", "ldouble", "lbrack", "lparen"):
            self.descend(pos)
            if kind == "not":
                self.next()
                f = Not(self.parse_unary())
            elif kind == "lparen":
                self.next()
                f = self.parse_iff()
                self.expect("rparen", "')'")
            else:
                f = self.parse_strategic()
            self.depth -= 1
            return f
        if kind == "ident":
            self.next()
            if text == "true":
                return TRUE
            if text not in self.model.atoms:
                raise UnknownProposition(
                    "unknown proposition %r at position %d" % (text, pos))
            return Atom(text)
        raise FormulaSyntaxError("expected a formula, found %r" % (text or "end of input"), pos)

    def parse_strategic(self):
        _, brace, pos = self.next()
        closing, closer = ("rdouble", "'>>'") if brace == "<<" else ("rbrack", "']]'")
        names = [self.expect("ident", "an agent name")]
        while self.peek()[0] == "comma":
            self.next()
            names.append(self.expect("ident", "an agent name"))
        self.expect(closing, closer)
        agents = [ag for _, name, _ in names for ag in self.macros.get(name, (name,))]
        try:
            coalition = self.model.coalition(agents)
        except UnknownAgent as exc:
            raise UnknownAgent("%s (coalition at position %d)" % (exc, pos)) from None
        if not coalition:
            raise FormulaSyntaxError("empty coalition", pos)

        kind, text, pos = self.next()
        if kind == "ident" and text in ("X", "F", "G"):
            return _STRATEGIC_CLASS[brace, text](coalition, self.parse_unary())
        if kind == "lparen":
            lhs = self.parse_iff()
            optok = self.next()
            if optok[0] != "ident" or optok[1] not in ("U", "W"):
                raise FormulaSyntaxError(
                    "expected 'U' or 'W', found %r" % optok[1], optok[2])
            rhs = self.parse_iff()
            self.expect("rparen", "')'")
            return _STRATEGIC_CLASS[brace, optok[1]](coalition, lhs, rhs)
        raise FormulaSyntaxError(
            "expected a temporal operator after the coalition, found %r" % text, pos)


def parse(text: str, model, coalition_macros=None) -> Formula:
    """Parse concrete syntax against a model.

    Coalition members are resolved against ``model.agents`` (and canonicalised
    to model order), atoms against the model's declared propositions.
    ``coalition_macros`` maps a name usable inside ``<<..>>`` to a list of
    agents it expands to.  A formula that nests ``!``, ``(``, ``->`` or
    strategic operators deeper than :data:`MAX_NESTING` levels, or whose
    syntax tree is higher than :data:`MAX_HEIGHT` operator levels, raises
    :class:`FormulaSyntaxError`.
    """
    return _Parser(text, model, coalition_macros).parse()
