"""Formula syntax: abstract trees, an ASCII grammar, and a bounded generator.

Concrete grammar (precedence from loosest to tightest):

    formula ::= iff
    iff     ::= imp ('<->' iff)?                    right-associative
    imp     ::= disj ('->' imp)?                    right-associative
    disj    ::= xor ('|' xor)*                      left-associative
    xor     ::= conj ('^' conj)*                    left-associative
    conj    ::= unary ('&' unary)*                  left-associative
    unary   ::= ('~' | '@' | '[]' | '<>' | '[=]' | '[-]') unary | primary
    primary ::= 'T' | 'F' | ident | '(' formula ')'
    ident   ::= /[a-z][a-zA-Z0-9_]*/

The unary operators are negation (~), ball (@), box ([]), diamond (<>),
box restricted to same-lattice successors ([=]) and box restricted to
different-lattice successors ([-]).  'T' and 'F' are the constant top and
bottom formulas.

Implication, biconditional and exclusive disjunction are sugar and normalize
away at construction time: f -> g is stored as ~f | g, f <-> g as the
conjunction of the two implications, and f ^ g as (f & ~g) | (~f & g).
Printed output therefore never contains '->', '<->' or '^', and
parse(format_formula(f)) returns a tree structurally equal to f.

The parser rejects a formula nested deeper than MAX_NESTING levels, counting
each operator and each pair of parentheses as a level, so that every
recursive function over a parsed tree stays well inside Python's recursion
limit.  The printer stops at MAX_FORMAT_LENGTH characters: the sugar it
writes out shares operands, so '<->' chains print exponentially long.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union


class _Node:
    """Hashing and equality by structure.  The sugar shares operands, so the
    tree of a '<->' chain is exponential in its length: a node keeps its hash,
    and a comparison visits each pair of nodes once."""

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((type(self), *(getattr(self, n) for n in self.__dataclass_fields__)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # The hash mixes in string hashes, which differ between processes.
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        seen: set[tuple[int, int]] = set()  # pairs equal or still on the stack
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b):
                return False
            seen.add((id(a), id(b)))
            for name in a.__dataclass_fields__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, _Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


@dataclass(frozen=True, eq=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False)
class Not(_Node):
    sub: "Formula"


@dataclass(frozen=True, eq=False)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class Ball(_Node):
    sub: "Formula"


@dataclass(frozen=True, eq=False)
class Box(_Node):
    sub: "Formula"


@dataclass(frozen=True, eq=False)
class Diamond(_Node):
    sub: "Formula"


@dataclass(frozen=True, eq=False)
class BoxSame(_Node):
    sub: "Formula"


@dataclass(frozen=True, eq=False)
class BoxDiff(_Node):
    sub: "Formula"


@dataclass(frozen=True, eq=False)
class Top(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Bot(_Node):
    pass


Formula = Union[Var, Not, And, Or, Ball, Box, Diamond, BoxSame, BoxDiff, Top, Bot]

_UNARY_TYPES = (Not, Ball, Box, Diamond, BoxSame, BoxDiff)
_MODAL_TYPES = (Box, Diamond, BoxSame, BoxDiff)
_UNARY_KINDS = frozenset(_UNARY_TYPES)
_BINARY_KINDS = frozenset((And, Or))


def Imp(left: Formula, right: Formula) -> Formula:
    """Material implication, stored as ~left | right."""
    return Or(Not(left), right)


def Iff(left: Formula, right: Formula) -> Formula:
    """Biconditional, stored as the conjunction of both implications."""
    return And(Imp(left, right), Imp(right, left))


def Xor(left: Formula, right: Formula) -> Formula:
    """Exclusive disjunction, stored as (l & ~r) | (~l & r)."""
    return Or(And(left, Not(right)), And(Not(left), right))


# The ASCII notation: the tokenizer, the parser, the printer and the parse
# errors' hints all read their operators from these two tables.
_UNARY_TOKENS = {"~": Not, "@": Ball, "[]": Box, "<>": Diamond, "[=]": BoxSame, "[-]": BoxDiff}
# Binary operator token -> (precedence, right-associative, constructor).
_BINARY_TOKENS = {
    "<->": (0, True, Iff),
    "->": (1, True, Imp),
    "|": (2, False, Or),
    "^": (3, False, Xor),
    "&": (4, False, And),
}


def variables(*formulas: Formula) -> tuple[str, ...]:
    """Sorted tuple of the variable names occurring in any of the formulas;
    a node shared by several parents is visited once."""
    return tuple(sorted({g.name for f in formulas for g in _post_order(f) if type(g) is Var}))


def _post_order(f: Formula) -> Iterable[Formula]:
    """The nodes of f, children before parents and left before right, each
    node object once however many parents share it.  A node is expanded by
    pushing it, a None to mark it and its children; popping the None emits
    it, after everything its children pushed."""
    done: dict[int, Formula] = {}  # id -> node, in the order emitted
    stack: list[Formula | None] = [f]
    while stack:
        g = stack.pop()
        if g is None:
            g = stack.pop()
            done[id(g)] = g
        elif id(g) not in done:
            kind = type(g)
            if kind in _BINARY_KINDS:
                stack += (g, None, g.right, g.left)
            elif kind in _UNARY_KINDS:
                stack += (g, None, g.sub)
            else:
                done[id(g)] = g
    return done.values()


def connective_count(f: Formula) -> int:
    """Number of operator nodes (variables and constants count zero), a
    node counted once per parent that shares it, as in the written-out
    tree; each distinct node is visited once."""
    counts: dict[int, int] = {}
    for g in _post_order(f):
        kind = type(g)
        if kind in _BINARY_KINDS:
            counts[id(g)] = 1 + counts[id(g.left)] + counts[id(g.right)]
        elif kind in _UNARY_KINDS:
            counts[id(g)] = 1 + counts[id(g.sub)]
        else:
            counts[id(g)] = 0
    return counts[id(f)]


def _first_modal(f: Formula) -> Formula | None:
    """The outermost, leftmost modal subformula of f, or None: per node, the
    node itself if it is modal, else the left child's, else the right's."""
    found: dict[int, Formula | None] = {}
    for g in _post_order(f):
        kind = type(g)
        if kind in _BINARY_KINDS:
            left = found[id(g.left)]
            found[id(g)] = left if left is not None else found[id(g.right)]
        elif kind in _MODAL_TYPES:
            found[id(g)] = g
        elif kind in _UNARY_KINDS:
            found[id(g)] = found[id(g.sub)]
        else:
            found[id(g)] = None
    return found[id(f)]


def is_modal_free(f: Formula) -> bool:
    return _first_modal(f) is None


def fold_constants(f: Formula) -> Formula:
    """A formula with the same value as f at every world of every frame,
    under every valuation and labelling, with the constant subformulas that
    these facts of the algebra find replaced by T or F:

    - ~T is F, and T & g, F | g are g; F & g is F and T | g is T;
    - a crisp value, one of F and T, has a crisp ~, &, |, box and diamond,
      down-interpretation keeping F and T, and @ is crisp everywhere, so @g
      is T for a crisp g;
    - []T, [=]T and [-]T are T, the meet of no value or of T's, and <>F is F.

    So @@p and ~@[]@p fold to T and F.  A subformula that folds to nothing
    simpler is kept as it is; a node shared by several parents is folded
    once."""
    folded: dict[int, tuple[Formula, bool]] = {}  # id -> (folded node, crisp)
    for g in _post_order(f):
        kind = type(g)
        if kind in (Top, Bot):
            folded[id(g)] = g, True
        elif kind is Var:
            folded[id(g)] = g, False
        elif kind in (And, Or):
            (left, lc), (right, rc) = folded[id(g.left)], folded[id(g.right)]
            absorbing, unit = (Bot, Top) if kind is And else (Top, Bot)
            if type(left) is absorbing or type(right) is absorbing:
                folded[id(g)] = absorbing(), True
            elif type(left) is unit:
                folded[id(g)] = right, rc
            elif type(right) is unit:
                folded[id(g)] = left, lc
            else:
                same = left is g.left and right is g.right
                folded[id(g)] = g if same else kind(left, right), lc and rc
        else:
            sub, crisp = folded[id(g.sub)]
            if kind is Not and type(sub) in (Top, Bot):
                folded[id(g)] = (Bot() if type(sub) is Top else Top()), True
            elif kind is Ball and crisp:
                folded[id(g)] = Top(), True
            elif (kind is Diamond and type(sub) is Bot
                  or kind in (Box, BoxSame, BoxDiff) and type(sub) is Top):
                folded[id(g)] = sub, True
            else:
                folded[id(g)] = g if sub is g.sub else kind(sub), crisp or kind is Ball
    return folded[id(f)][0]


def ball_substitution(f: Formula) -> Formula:
    """Replace every variable leaf p by @p, leaving the rest of the tree
    alone; a node shared by several parents is substituted once, so it stays
    shared."""
    done: dict[int, Formula] = {}  # id -> substituted node
    for g in _post_order(f):
        kind = type(g)
        if kind is Var:
            done[id(g)] = Ball(g)
        elif kind in _BINARY_KINDS:
            done[id(g)] = kind(done[id(g.left)], done[id(g.right)])
        elif kind in _UNARY_KINDS:
            done[id(g)] = kind(done[id(g.sub)])
        else:
            done[id(g)] = g
    return done[id(f)]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_UNARY_ASCII = {kind: token for token, kind in _UNARY_TOKENS.items()}

# Precedence used by the printer: atoms bind tightest, then the unary
# operators, then & over |.  Normalized trees contain no other binaries.
_PREC_UNARY = 4
_PREC_AND = 3
_PREC_OR = 2


class ResourceBudgetExceeded(RuntimeError):
    """Raised when printing, a sweep or a search would exceed its budget."""


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; the text re-parses to f.
    Raises ResourceBudgetExceeded past MAX_FORMAT_LENGTH characters."""

    def render(g: Formula, context: int) -> str:
        if isinstance(g, Var):
            return g.name
        if isinstance(g, Top):
            return "T"
        if isinstance(g, Bot):
            return "F"
        if isinstance(g, _UNARY_TYPES):
            text = _UNARY_ASCII[type(g)] + render(g.sub, _PREC_UNARY)
            prec = _PREC_UNARY
        elif isinstance(g, And):
            text = render(g.left, _PREC_AND) + " & " + render(g.right, _PREC_AND + 1)
            prec = _PREC_AND
        else:
            text = render(g.left, _PREC_OR) + " | " + render(g.right, _PREC_OR + 1)
            prec = _PREC_OR
        if len(text) > MAX_FORMAT_LENGTH:
            raise ResourceBudgetExceeded(
                f"formula text longer than {MAX_FORMAT_LENGTH} characters"
            )
        return "(" + text + ")" if prec < context else text

    return render(f, 0)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected token set."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at offset {position}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


_FORMULA_START = ("identifier", "T", "F", "(", *_UNARY_TOKENS)

# One alternative per token, the longest first, so that a token that begins
# with another is read whole; whitespace and identifiers as the grammar has them.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<ident>[a-z][a-zA-Z0-9_]*)|(?P<op>"
    + "|".join(map(re.escape, sorted([*_UNARY_TOKENS, *_BINARY_TOKENS, "(", ")", "T", "F"],
                                     key=len, reverse=True)))
    + ")"
)


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Produce (kind, offset) pairs; identifiers carry their text as kind
    'ident:<name>'.  The tokens are the matches of _TOKEN, each starting
    where the last ended; the first character where none starts is an error."""
    tokens: list[tuple[str, int]] = []
    end = 0
    for m in _TOKEN.finditer(text):
        if m.start() != end:
            break
        end = m.end()
        if m.lastgroup == "op":
            tokens.append((m.group(), m.start()))
        elif m.lastgroup == "ident":
            tokens.append(("ident:" + m.group(), m.start()))
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", end, _FORMULA_START)
    tokens.append(("end", end))
    return tokens


MAX_NESTING = 100
MAX_FORMAT_LENGTH = 1 << 20  # characters of one printed formula


class _Parser:
    """Precedence climbing over the binary operators, with the prefix
    operators read in a loop.

    Each method returns a formula with its nesting depth: the levels of
    operators and parentheses above its deepest leaf as written.  `enclosing`
    counts the levels known to enclose the current token; it bounds the
    recursion, which only parentheses and right operands enter, before the
    depth of what is being parsed is known.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.enclosing = 0

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> None:
        tok, offset = self.peek()
        if tok != kind:
            raise ParseError(f"unexpected token {tok!r}", offset, (kind,))
        self.advance()

    @staticmethod
    def limit(depth: int, offset: int) -> int:
        if depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", offset)
        return depth

    def parse_formula(self, min_precedence: int = 0) -> tuple[Formula, int]:
        f, depth = self.parse_unary()
        while True:
            tok, offset = self.peek()
            binary = _BINARY_TOKENS.get(tok)
            if binary is None or binary[0] < min_precedence:
                return f, depth
            precedence, right_associative, build = binary
            self.advance()
            self.enclosing = self.limit(self.enclosing + 1, offset)
            right, right_depth = self.parse_formula(
                precedence if right_associative else precedence + 1
            )
            self.enclosing -= 1
            f, depth = build(f, right), self.limit(max(depth, right_depth) + 1, offset)

    def parse_unary(self) -> tuple[Formula, int]:
        tok, start = self.peek()
        if tok not in _UNARY_TOKENS:
            return self.parse_primary()
        ops = []
        while self.peek()[0] in _UNARY_TOKENS:
            tok, offset = self.advance()
            ops.append(_UNARY_TOKENS[tok])
            self.limit(self.enclosing + len(ops), offset)
        self.enclosing += len(ops)
        f, depth = self.parse_primary()
        self.enclosing -= len(ops)
        for op in reversed(ops):
            f = op(f)
        return f, self.limit(depth + len(ops), start)

    def parse_primary(self) -> tuple[Formula, int]:
        tok, offset = self.peek()
        if tok == "T":
            self.advance()
            return Top(), 0
        if tok == "F":
            self.advance()
            return Bot(), 0
        if tok.startswith("ident:"):
            self.advance()
            return Var(tok[6:]), 0
        if tok == "(":
            self.advance()
            self.enclosing = self.limit(self.enclosing + 1, offset)
            f, depth = self.parse_formula()
            self.expect(")")
            self.enclosing -= 1
            return f, self.limit(depth + 1, offset)
        raise ParseError(f"unexpected token {tok!r}", offset, _FORMULA_START)


def parse(text: str) -> Formula:
    """Parse the ASCII grammar; raises ParseError with offset on bad input,
    including a formula nested deeper than MAX_NESTING levels, counting each
    operator and each pair of parentheses as a level."""
    parser = _Parser(text)
    f, _ = parser.parse_formula()
    tok, offset = parser.peek()
    if tok != "end":
        raise ParseError(f"trailing input {tok!r}", offset, ("end of input",))
    return f


# ---------------------------------------------------------------------------
# Bounded formula generation
# ---------------------------------------------------------------------------


def generate_corpus(var_names: Sequence[str], max_connectives: int) -> list[Formula]:
    """Every formula over the given variables built from ~, &, @ and []
    with at most the given number of connective nodes.

    The result is duplicate-free and totally ordered by (connective count,
    lexicographic ASCII rendering).  Disjunction and diamond are definable
    from this fragment and are omitted to keep the enumeration small.
    """
    if max_connectives < 0:
        raise ValueError("max_connectives must be >= 0")
    by_size: list[list[Formula]] = [[Var(name) for name in var_names]]
    for size in range(1, max_connectives + 1):
        batch: list[Formula] = []
        for g in by_size[size - 1]:
            batch.append(Not(g))
            batch.append(Ball(g))
            batch.append(Box(g))
        for left_size in range(size):
            for lf in by_size[left_size]:
                for rf in by_size[size - 1 - left_size]:
                    batch.append(And(lf, rf))
        batch.sort(key=format_formula)
        by_size.append(batch)
    corpus: list[Formula] = []
    first = sorted(by_size[0], key=format_formula)
    corpus.extend(first)
    for batch in by_size[1:]:
        corpus.extend(batch)
    return corpus


def corpus_size(var_count: int, max_connectives: int) -> int:
    """Closed-form count of generate_corpus output via the grammar recurrence.

    c(0) = v and c(s) = 3*c(s-1) + sum of c(i)*c(s-1-i); used as an
    independent check on the enumerator.
    """
    counts = [var_count]
    for size in range(1, max_connectives + 1):
        total = 3 * counts[size - 1]
        for left_size in range(size):
            total += counts[left_size] * counts[size - 1 - left_size]
        counts.append(total)
    return sum(counts)
