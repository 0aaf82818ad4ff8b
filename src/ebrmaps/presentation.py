"""Group presentations: parsing, standard constructors, and coset enumeration.

The textual grammar, in ASCII; whitespace (``string.whitespace``) separates
tokens, and any other character is a syntax error::

    presentation := "<" gens "|" relators ">"
    gens         := ident ("," ident)*
    relators     := word ("," word)*
    word         := factor+
    factor       := ident ("^" int)? | "(" word ")" ("^" int)?
    ident        := [A-Za-z][A-Za-z0-9]*
    int          := "-"? [0-9]+

Coset enumeration runs over the trivial subgroup, so a completed table is
the right Cayley graph of the presented group.  The table is kept as
``FiniteGroup`` keeps a group, one list per column (about 100 bytes per
coset over four involution columns), so its generator columns become the
``FiniteGroup`` directly.  The strategy is definition-driven with immediate
deductions (Felsch style): always fill the lowest empty slot of the lowest
live coset, and close relator cycles as soon as their last edge appears.
Each new entry is queued once, not with its mirror: the cycles through an
edge are the same read from either end.  Coincidences are processed through
a union-find with path compression.  The relators' lengths are held to the
rotation budget, ``MAX_ROTATION_LETTERS``, before any of them is expanded.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Optional, Sequence

from .ebr_core import SLOT_NAMES
from .perm_group import FiniteGroup

DEFAULT_MAX_COSETS = 10**6

# Parentheses nest at most this deep; the parser recurses once per level.
MAX_NESTING = 100

# Coset enumeration stores each distinct rotation of every relator and of
# its inverse, so this many letters at most; the parser holds each relator
# to it before expansion, so a short input cannot ask for an unbounded word.
# A dihedral relator (a b)^m stores 4m letters, so the budget admits every
# dihedral group that DEFAULT_MAX_COSETS admits.  A relator that is not a
# proper power stores up to twice its length squared, so it is held to
# 1,000-1,400 letters, where enumeration already takes minutes.
MAX_ROTATION_LETTERS = 2 * DEFAULT_MAX_COSETS

Word = tuple[tuple[int, int], ...]


class PresentationSyntaxError(ValueError):
    """Malformed presentation text, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class CosetLimitExceeded(RuntimeError):
    """Enumeration exceeded max_cosets; the group may be infinite or the
    bound too small.  Never a certificate of infiniteness."""


@dataclass(frozen=True)
class GroupPresentation:
    """Named generators plus relator words, each word a sequence of
    (generator index, exponent) terms."""

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        for word in self.relators:
            for idx, exp in word:
                if not 0 <= idx < len(self.generator_names):
                    raise ValueError(f"generator index {idx} out of range")
                if exp == 0:
                    raise ValueError("zero exponent in relator")

    def __str__(self) -> str:
        names = self.generator_names

        def render(word: Word) -> str:
            parts = []
            for idx, exp in word:
                parts.append(names[idx] if exp == 1 else f"{names[idx]}^{exp}")
            return " ".join(parts)

        gens = ", ".join(names)
        rels = ", ".join(render(w) for w in self.relators)
        return f"< {gens} | {rels} >"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# The grammar's token classes, all ASCII; any other character is an error.
_TOKEN = re.compile("|".join((
    "(?P<ident>[A-Za-z][A-Za-z0-9]*)", "(?P<int>-?[0-9]+)", "(?P<punct>[<>|,^()])",
    f"(?P<space>[{re.escape(string.whitespace)}]+)", "(?P<other>.)")), re.DOTALL)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # kind, text, offset; kind "end" last
        for match in _TOKEN.finditer(text):
            if match.lastgroup == "other":
                raise self.error(f"unexpected character {match.group()!r}", match.start())
            if match.lastgroup != "space":
                self.tokens.append((match.lastgroup, match.group(), match.start()))
        self.tokens.append(("end", "", len(text)))
        self.pos = 0

    def error(self, message: str, offset: int) -> PresentationSyntaxError:
        """The error at ``offset``, placed by 1-based line and column."""
        line_start = self.text.rfind("\n", 0, offset) + 1
        return PresentationSyntaxError(
            message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expected(self, what: str) -> PresentationSyntaxError:
        """The error for a next token (or end of input) that is not ``what``."""
        _, text, offset = self.peek()
        return self.error(f"expected {what}, found {text or 'end of input'!r}", offset)

    def is_punct(self, text: str) -> bool:
        return self.peek()[:2] == ("punct", text)

    def expect(self, text: str) -> None:
        if not self.is_punct(text):
            raise self.expected(repr(text))
        self.take()

    def parse(self) -> GroupPresentation:
        self.expect("<")
        names = [self.ident()]
        while self.is_punct(","):
            self.take()
            names.append(self.ident())
        seen = set()
        for name in names:
            if name in seen:
                raise self.error(f"duplicate generator name {name!r}", self.tokens[0][2])
            seen.add(name)
        self.expect("|")
        index = {name: i for i, name in enumerate(names)}
        relators = [self.word(index)]
        while self.is_punct(","):
            self.take()
            relators.append(self.word(index))
        self.expect(">")
        kind, text, offset = self.peek()
        if kind != "end":
            raise self.error(f"trailing input {text!r}", offset)
        return GroupPresentation(tuple(names), tuple(relators))

    def ident(self) -> str:
        if self.peek()[0] != "ident":
            raise self.expected("identifier")
        return self.take()[1]

    def exponent(self) -> int:
        if self.peek()[0] != "int":
            raise self.expected("integer exponent")
        _, text, offset = self.take()
        try:
            value = int(text)
        except ValueError:  # too many digits to convert, so far over budget
            value = MAX_ROTATION_LETTERS + 1
        if value == 0:
            raise self.error("zero exponent", offset)
        return value

    def power(self, offset: int, length: int, base: int) -> int:
        """The exponent after the token at ``offset`` (1 if none), once a word
        of ``length`` letters followed by ``base`` letters to that power stays
        within budget; the error points at the exponent, or else at ``offset``."""
        exp = 1
        if self.is_punct("^"):
            self.take()
            offset = self.peek()[2]
            exp = self.exponent()
        if length + base * abs(exp) > MAX_ROTATION_LETTERS:
            raise self.error(f"relator longer than {MAX_ROTATION_LETTERS} letters", offset)
        return exp

    def word(self, index: dict[str, int], depth: int = 0) -> Word:
        terms: list[tuple[int, int]] = []
        length = 0  # letters once expanded
        while True:
            kind, text, offset = self.peek()
            if kind == "ident":
                self.take()
                if text not in index:
                    raise self.error(f"unknown generator name {text!r}", offset)
                exp = self.power(offset, length, 1)
                terms.append((index[text], exp))
                length += abs(exp)
            elif self.is_punct("("):
                if depth >= MAX_NESTING:
                    raise self.error(f"parentheses nested deeper than {MAX_NESTING}", offset)
                self.take()
                inner = self.word(index, depth + 1)
                self.expect(")")
                base = _length(inner)
                exp = self.power(offset, length, base)
                terms.extend(_power(inner, exp))
                length += base * abs(exp)
            elif not terms:
                raise self.expected("word")
            else:
                return tuple(terms)


def _length(word: Sequence[tuple[int, int]]) -> int:
    """The number of letters ``word`` expands to."""
    return sum(abs(exp) for _, exp in word)


def _invert(word: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(idx, -exp) for idx, exp in reversed(word)]


def _power(word: Sequence[tuple[int, int]], exp: int) -> list[tuple[int, int]]:
    base = list(word) if exp > 0 else _invert(word)
    return base * abs(exp)


def parse_presentation(text: str) -> GroupPresentation:
    """Parse presentation text; raises PresentationSyntaxError on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Standard presentations
# ---------------------------------------------------------------------------

def triangle_group(k: int, l: int) -> GroupPresentation:
    """Full triangle group of type (k, l) on generators R0, R2, R1."""
    if k < 2 or l < 2:
        raise ValueError("triangle group parameters must be at least 2")
    r0, r2, r1 = 0, 1, 2
    return GroupPresentation(
        ("R0", "R2", "R1"),
        (
            ((r0, 2),),
            ((r2, 2),),
            ((r1, 2),),
            tuple([(r0, 1), (r2, 1)] * 2),
            tuple([(r1, 1), (r2, 1)] * k),
            tuple([(r0, 1), (r1, 1)] * l),
        ),
    )


def dihedral_presentation(m: int) -> GroupPresentation:
    """Two involutions whose product has order m: the dihedral group of order 2m."""
    if m < 1:
        raise ValueError("m must be positive")
    return GroupPresentation(
        ("a", "b"),
        (((0, 2),), ((1, 2),), tuple([(0, 1), (1, 1)] * m)),
    )


def ebr_type_presentation(k: int, l: int) -> GroupPresentation:
    """Partial presentation shared by every edge-biregular map of type (k, l):
    four involutions r0, r2, rho0, rho2 with commuting edge pairs and
    (r2 rho2)^(k/2), (r0 rho0)^(l/2).  Finite quotients add relators; the
    presentation itself is finite only for the spherical types (2, 2m) and
    (2m, 2)."""
    if k < 2 or l < 2 or k % 2 or l % 2:
        raise ValueError("type entries must be even and at least 2")
    r0, r2, p0, p2 = 0, 1, 2, 3
    squares = tuple(((g, 2),) for g in (r0, r2, p0, p2))
    pairs = (
        tuple([(r0, 1), (r2, 1)] * 2),
        tuple([(p0, 1), (p2, 1)] * 2),
        tuple([(r2, 1), (p2, 1)] * (k // 2)),
        tuple([(r0, 1), (p0, 1)] * (l // 2)),
    )
    return GroupPresentation(SLOT_NAMES, squares + pairs)


def square_grid_group() -> GroupPresentation:
    """Colour-preserving symmetries of the alternately coloured square grid:
    the type (4, 4) partial presentation.  Infinite."""
    return ebr_type_presentation(4, 4)


# ---------------------------------------------------------------------------
# Coset enumeration (Felsch strategy, trivial subgroup)
# ---------------------------------------------------------------------------

class _CosetTable:
    # columns[x][c] is c·x, or None while that slot is empty: one list per
    # column, as FiniteGroup keeps the finished group.  An entry c --x--> d
    # is queued as (c, x) alone, though its mirror d --inv_col[x]--> c is
    # written with it.  The rotations that start with inv_col[x], scanned at
    # d, are those that start with x, scanned at c, read backwards, so
    # queueing the mirror would scan every cycle twice.
    def __init__(self, inv_col: list[int], max_cosets: int):
        self.inv_col = inv_col
        self.max_cosets = max_cosets
        self.columns: list[list[Optional[int]]] = [[None] for _ in inv_col]
        self.parent = [0]  # a coset is live exactly when it is its own root
        self.live_count = 1
        self.deductions: list[tuple[int, int]] = []
        # Rotations of relators (and their inverses) indexed by first letter,
        # each paired with its inverse word, which is also a stored rotation.
        self.rotations: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [
            [] for _ in inv_col]

    def find(self, c: int) -> int:
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    def define(self, c: int, x: int) -> None:
        if self.live_count >= self.max_cosets:
            raise CosetLimitExceeded(
                f"enumeration exceeded max_cosets={self.max_cosets}")
        d = len(self.parent)
        for col in self.columns:
            col.append(None)
        self.columns[x][c] = d
        self.columns[self.inv_col[x]][d] = c
        self.parent.append(d)
        self.live_count += 1
        self.deductions.append((c, x))

    def coincidence(self, a: int, b: int) -> int:
        """Merge ``a`` and ``b``, and every pair of cosets that forces.
        Returns the lowest live coset that lost an entry, or the number of
        cosets if none did."""
        columns, inv_col, parent = self.columns, self.inv_col, self.parent
        low = len(parent)
        queue: list[int] = []

        def merge(u: int, v: int) -> None:
            u, v = self.find(u), self.find(v)
            if u == v:
                return
            if u > v:
                u, v = v, u
            parent[v] = u
            self.live_count -= 1
            queue.append(v)

        merge(a, b)
        pos = 0
        while pos < len(queue):
            dead = queue[pos]
            pos += 1
            for x, col in enumerate(columns):
                d = col[dead]
                if d is None:
                    continue
                # Detach the mirror entry, then reinstall under representatives.
                mirror = columns[inv_col[x]]
                mirror[d] = None
                if parent[d] == d and d < low:
                    low = d
                u, v = self.find(dead), self.find(d)
                if col[u] is not None:
                    merge(v, col[u])
                elif mirror[v] is not None:
                    merge(u, mirror[v])
                else:
                    col[u] = v
                    mirror[v] = u
                    self.deductions.append((u, x))
        return low

    def fill(self) -> None:
        """Complete the table.  Scan every relator cycle through each queued
        entry at its live end: forward to the first gap, then backward along
        the inverse word.  A closed cycle whose ends differ is a coincidence;
        a gap of one letter is filled, and the new entry is queued.  Once the
        queue is empty, define the first empty slot of the lowest live coset,
        until no slot is empty."""
        columns, parent = self.columns, self.parent
        deductions, rotations = self.deductions, self.rotations
        cursor = 0  # every live coset below it is complete
        while True:
            while deductions:
                c, x = deductions.pop()
                if parent[c] != c:
                    c = self.find(c)
                if columns[x][c] is None:
                    continue
                for word, back in rotations[x]:
                    f, i = c, 0
                    for y in word:
                        nxt = columns[y][f]
                        if nxt is None:
                            break
                        f = nxt
                        i += 1
                    gap = len(word) - i
                    b, k = c, 0
                    for y in back:
                        if k == gap:
                            break
                        prv = columns[y][b]
                        if prv is None:
                            break
                        b = prv
                        k += 1
                    if k == gap:
                        if f != b:
                            cursor = min(cursor, self.coincidence(f, b))
                            if parent[c] != c:
                                break
                    elif k == gap - 1:
                        # Both slots are empty: the scans stopped at them.
                        columns[word[i]][f] = b
                        columns[back[k]][b] = f
                        deductions.append((f, word[i]))
            # Define the first empty slot of the lowest live coset, if any.
            while cursor < len(parent):
                if parent[cursor] == cursor:
                    for x, col in enumerate(columns):
                        if col[cursor] is None:
                            break
                    else:  # complete
                        cursor += 1
                        continue
                    break
                cursor += 1
            else:
                return
            self.define(cursor, x)


def coset_enumerate(pres: GroupPresentation,
                    max_cosets: int = DEFAULT_MAX_COSETS) -> FiniteGroup:
    """Enumerate the presented group over the trivial subgroup.

    Returns the group as the Cayley graph the completed coset table holds,
    with generators named as in the presentation and elements numbered
    breadth-first from the identity coset.  Raises CosetLimitExceeded when
    more than ``max_cosets`` live cosets would be needed, and ValueError when
    the relator rotations would take more than ``MAX_ROTATION_LETTERS``
    letters.
    """
    ngens = len(pres.generator_names)
    if ngens == 0:
        raise ValueError("presentation has no generators")
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")

    # Refuse before expanding any relator.  Each is one of its rotations, and
    # one over two or more generators has at least two rotations of its full
    # length, as its cyclic period exceeds 1.  Relators are counted as given,
    # so one repeated up to rotation or inversion counts again.
    too_many = f"relator rotations take more than {MAX_ROTATION_LETTERS} letters"
    mixed = 0  # twice the letters of the relators over two or more generators
    for word in pres.relators:
        if any(idx != word[0][0] for idx, _ in word):
            mixed += 2 * _length(word)
        elif _length(word) > MAX_ROTATION_LETTERS:
            raise ValueError(too_many)
    if mixed > MAX_ROTATION_LETTERS:
        raise ValueError(too_many)
    involutory = {word[0][0] for word in pres.relators
                  if _length(word) == 2 and len({(idx, exp > 0) for idx, exp in word}) == 1}

    col_of: list[int] = []  # each generator's column; inv_col gives its inverse's
    inv_col: list[int] = []
    for i in range(ngens):
        col_of.append(len(inv_col))
        inv_col.extend([col_of[i]] if i in involutory else [col_of[i] + 1, col_of[i]])

    ct = _CosetTable(inv_col, max_cosets)

    stored: dict[tuple[int, ...], tuple[int, ...]] = {}  # each rotation, held once
    letters = 0
    for word in pres.relators:
        expanded: list[int] = []
        for idx, exp in word:
            expanded += [col_of[idx] if exp > 0 else inv_col[col_of[idx]]] * abs(exp)
        cols = tuple(expanded)
        if len(cols) == 2 and cols[0] == cols[1]:
            continue  # involution squares are built into the column structure
        inverse = tuple(inv_col[x] for x in reversed(cols))
        for base in (cols, inverse):
            for shift in range(_cyclic_period(base)):
                rot = base[shift:] + base[:shift] if shift else base
                if rot not in stored:
                    letters += len(rot)
                    if letters > MAX_ROTATION_LETTERS:
                        raise ValueError(too_many)
                    stored[rot] = rot
    for rot in stored:
        ct.rotations[rot[0]].append((rot, stored[tuple(inv_col[x] for x in reversed(rot))]))

    ct.fill()

    # The generators permute the live cosets regularly, so their image
    # arrays are the columns of the Cayley graph.
    live = [c for c, root in enumerate(ct.parent) if root == c]
    renumber = [0] * len(ct.parent)
    for i, c in enumerate(live):
        renumber[c] = i
    columns = [[renumber[ct.columns[x][c]] for c in live] for x in col_of]
    return FiniteGroup(pres.generator_names, columns)


def _cyclic_period(word: tuple[int, ...]) -> int:
    """The least shift that rotates ``word`` onto itself; the rotations by
    larger shifts repeat the earlier ones.  That shift divides the length,
    so only divisors are tried; the empty word has period 0."""
    n = len(word)
    return next((d for d in range(1, n + 1) if n % d == 0 and word[d:] + word[:d] == word), 0)
