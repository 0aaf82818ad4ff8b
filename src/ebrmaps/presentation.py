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
``FiniteGroup`` keeps a group, one list per column whose entries share one
int per coset (about 70 bytes per coset over four involution columns), so
its generator columns become the ``FiniteGroup`` directly, less the empty
slots they grow by.  The strategy is definition-driven with immediate
deductions (Felsch style): always fill the lowest empty slot of the lowest
live coset, scan that definition at once, and close relator cycles as soon
as their last edge appears.  Every other new entry is queued once, not with
its mirror: the cycles through an edge are the same read from either end.
Each distinct rotation x w of the relators and their inverses is stored
once, as the column lists of w: a scan through an entry c·x reads w forward
from c·x, and reads back from c along the lists of x^-1 w^-1, another
stored rotation.  Coincidences are processed through a union-find rooted at
the least coset, with path halving.  The relators' lengths are held to the
rotation budget, ``MAX_ROTATION_LETTERS``, before any of them is expanded.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .ebr_core import SLOT_NAMES
from .perm_group import FiniteGroup, _find

DEFAULT_MAX_COSETS = 10**6
_EMPTY_BLOCK = (None,) * 1024  # the empty slots a coset-table column grows by

# Parentheses nest at most this deep; the parser recurses once per level.
MAX_NESTING = 100

# Coset enumeration stores each distinct rotation of every relator and of
# its inverse, so this many letters at most.  One rule, ``_charge``, holds a
# presentation to it before any relator is expanded, in the parser token by
# token and in ``coset_enumerate``: each relator as given is charged its
# letters, twice if it spans two or more generators (it has two rotations of
# full length), and nothing if it squares a generator (an involution column,
# no rotation).  A dihedral relator (a b)^m is charged and stores 4m letters,
# so the budget admits every dihedral group DEFAULT_MAX_COSETS admits.  A
# relator that is no proper power stores up to twice its length squared,
# which the store's count refuses at 1,000-1,400 letters.
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
        self.spent = 0  # the charge of the relators read

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
        index: dict[str, int] = {}
        while not index or self.is_punct(","):
            if index:
                self.take()
            _, name, offset = self.ident()
            if name in index:
                raise self.error(f"duplicate generator name {name!r}", offset)
            index[name] = len(index)
        self.expect("|")
        relators: list[Word] = []
        while not relators or self.is_punct(","):
            if relators:
                self.take()
            word, charge = self.word(index)
            relators.append(word)
            self.spent += charge
        self.expect(">")
        kind, text, offset = self.peek()
        if kind != "end":
            raise self.error(f"trailing input {text!r}", offset)
        return GroupPresentation(tuple(index), tuple(relators))

    def ident(self) -> tuple[str, str, int]:
        if self.peek()[0] != "ident":
            raise self.expected("identifier")
        return self.take()

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

    def word(self, index: dict[str, int], depth: int = 0, letters: int = 0,
             exponent_sum: int = 0, gens: Iterable[int] = ()) -> tuple[Word, int]:
        """The word read next and its charge.  Before each factor is expanded,
        the relator so far and the relators read are held to the budget; the
        error points at the factor's exponent, or else at the factor.  Inside
        parentheses the relator so far starts with the enclosing levels'
        prefix, their pending exponents taken as 1, whose ``letters``,
        ``exponent_sum`` and ``gens`` are passed in: so the open levels
        together never hold more than one budget of expanded terms."""
        terms: list[tuple[int, int]] = []
        charge = 0  # of the relator so far, once expanded
        gens = set(gens)  # a copy: the enclosing level's goes on from its prefix
        while True:
            kind, text, offset = self.peek()
            if kind == "ident":
                self.take()
                if text not in index:
                    raise self.error(f"unknown generator name {text!r}", offset)
                factor: Word = ((index[text], 1),)
            elif self.is_punct("("):
                if depth >= MAX_NESTING:
                    raise self.error(f"parentheses nested deeper than {MAX_NESTING}", offset)
                self.take()
                factor = self.word(index, depth + 1, letters, exponent_sum, gens)[0]
                self.expect(")")
            elif not terms:
                raise self.expected("word")
            else:
                return tuple(terms), charge
            exp = 1
            if self.is_punct("^"):
                self.take()
                offset = self.peek()[2]
                exp = self.exponent()
            for idx, e in factor:
                gens.add(idx)
                letters += abs(e * exp)
                exponent_sum += e * exp
            charge = _charge(letters, len(gens), exponent_sum)
            if self.spent + charge > MAX_ROTATION_LETTERS:
                raise self.error(
                    f"relator longer than {MAX_ROTATION_LETTERS} letters in its rotations", offset)
            terms.extend(_power(factor, exp))


def _length(word: Sequence[tuple[int, int]]) -> int:
    """The number of letters ``word`` expands to."""
    return sum(abs(exp) for _, exp in word)


def _charge(letters: int, generators: int, exponent_sum: int) -> int:
    """The letters a relator is charged against ``MAX_ROTATION_LETTERS``, by
    its letters, the generators it spans and its exponent sum; a square of a
    generator is the one word of two letters, one generator and sum 2 or -2."""
    if generators > 1:
        return 2 * letters
    return 0 if letters == abs(exponent_sum) == 2 else letters


def _invert(word: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(idx, -exp) for idx, exp in reversed(word)]


def _power(word: Sequence[tuple[int, int]], exp: int) -> list[tuple[int, int]]:
    """``word`` to the power ``exp``; a power of one term stays one term."""
    if len(word) == 1:
        return [(word[0][0], word[0][1] * exp)]
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
    # column, as FiniteGroup keeps the finished group, grown by _EMPTY_BLOCK
    # when a coset reaches its length; slots past len(parent) are slack.
    # fill scans each definition as it makes it.  Any other entry c --x--> d
    # is queued as (c, x) alone, though its mirror d --inv_col[x]--> c is
    # written with it: the rotations that start with inv_col[x], scanned at
    # d, are those that start with x, scanned at c, read backwards, so the
    # mirror's scans would repeat them.
    #
    # rotations[x] holds each stored rotation x w as a record (tail, n, back,
    # letters).  ``tail`` is the column lists of w, n of them, so a scan from
    # c starts at c·x and looks up no column index.  ``back`` is the tail of
    # x^-1 w^-1, another stored rotation: the columns that lead from c back
    # along w.  ``letters`` is the column indices of x w, so letters[i + 1]
    # names the column of tail[i].
    def __init__(self, inv_col: list[int], max_cosets: int):
        self.inv_col = inv_col
        self.max_cosets = max_cosets
        self.columns: list[list[Optional[int]]] = [list(_EMPTY_BLOCK) for _ in inv_col]
        self.parent = [0]  # a coset is live exactly when it is its own root
        self.live_count = 1
        self.deductions: list[tuple[int, int]] = []
        self.rotations: list[list[tuple[list, int, list, tuple]]] = [[] for _ in inv_col]

    def coincidence(self, a: int, b: int) -> None:
        """Merge ``a`` and ``b``, and every pair of cosets that forces.  A live
        coset ends with every entry it had, so the fill cursor needs no reset:
        an entry taken out points to the dead coset being walked, whose walk
        reinstalls it under representatives, finds the slot held in the
        class, or merges the class with a holder (a dead one is walked in
        turn), and at the end each class is its live coset alone."""
        columns, inv_col, parent = self.columns, self.inv_col, self.parent
        queue: list[int] = []

        def merge(u: int, v: int) -> None:
            u, v = _find(parent, u), _find(parent, v)
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
                u, v = _find(parent, dead), _find(parent, d)
                if col[u] is not None:
                    merge(v, col[u])
                elif mirror[v] is not None:
                    merge(u, mirror[v])
                else:
                    col[u] = v
                    mirror[v] = u
                    self.deductions.append((u, x))

    def fill(self) -> None:
        """Complete the table.  Scan every relator cycle through each queued
        entry c --x--> d at its live end c: forward from d to the first gap,
        then backward from c.  A closed cycle whose ends differ is a
        coincidence; a gap of one letter is filled, and the new entry is
        queued (its scan of the cycle the fill closed finds it closed).
        Once the queue is empty, define the first empty slot of the lowest
        live coset and scan it at once, until no slot is empty."""
        columns, parent, inv_col = self.columns, self.parent, self.inv_col
        deductions, rotations, max_cosets = self.deductions, self.rotations, self.max_cosets
        ncols, room = len(columns), len(columns[0])
        cursor = slot = 0  # live cosets below cursor, and its slots below slot, are full
        while True:
            if deductions:
                c, x = deductions.pop()
                if parent[c] != c:
                    c = _find(parent, c)
                d = columns[x][c]
                if d is None:
                    continue
            else:
                while cursor < len(parent):
                    if parent[cursor] == cursor:
                        while slot < ncols and columns[slot][cursor] is not None:
                            slot += 1
                        if slot < ncols:
                            break
                    cursor, slot = cursor + 1, 0
                else:
                    return
                if self.live_count >= max_cosets:
                    raise CosetLimitExceeded(f"enumeration exceeded max_cosets={max_cosets}")
                # The new coset's int is the one object its entries share.
                c, x, d = parent[cursor], slot, len(parent)
                if d == room:
                    for col in columns:
                        col.extend(_EMPTY_BLOCK)
                    room += len(_EMPTY_BLOCK)
                columns[x][c] = d
                columns[inv_col[x]][d] = c
                parent.append(d)
                self.live_count += 1
            for tail, n, back, letters in rotations[x]:
                f, i = d, 0
                for col in tail:
                    nxt = col[f]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                gap = n - i
                b, k = c, 0
                for col in back:
                    if k == gap:
                        break
                    prv = col[b]
                    if prv is None:
                        break
                    b = prv
                    k += 1
                if k == gap:
                    if f != b:
                        self.coincidence(f, b)
                        if parent[c] != c:
                            break
                        d = columns[x][c]
                elif k == gap - 1:
                    # Both slots are empty: the scans stopped at them.
                    tail[i][f] = b
                    back[k][b] = f
                    deductions.append((f, letters[i + 1]))


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

    # Refuse before expanding any relator; one charged nothing squares a generator.
    too_many = f"relator rotations take more than {MAX_ROTATION_LETTERS} letters"
    charges = [_charge(_length(word), len({idx for idx, _ in word}), sum(e for _, e in word))
               for word in pres.relators]
    if sum(charges) > MAX_ROTATION_LETTERS:
        raise ValueError(too_many)
    involutory = {word[0][0] for word, charge in zip(pres.relators, charges)
                  if word and not charge}

    col_of: list[int] = []  # each generator's column; inv_col gives its inverse's
    inv_col: list[int] = []
    for i in range(ngens):
        col_of.append(len(inv_col))
        inv_col.extend([col_of[i]] if i in involutory else [col_of[i] + 1, col_of[i]])

    ct = _CosetTable(inv_col, max_cosets)

    # Each distinct rotation of the relators and their inverses is held once:
    # where maps it to its tail lists.
    where: dict[tuple[int, ...], list] = {}
    held = 0  # letters stored
    for word in pres.relators:
        expanded: list[int] = []
        for idx, exp in word:
            expanded += [col_of[idx] if exp > 0 else inv_col[col_of[idx]]] * abs(exp)
        cols = tuple(expanded)
        del expanded
        if not cols or len(cols) == 2 and cols[0] == cols[1]:
            continue  # holds everywhere, or is built into an involution's column
        new = []
        for base in (cols, tuple(inv_col[x] for x in reversed(cols))):
            if base in where:
                continue  # all its rotations are stored already
            for shift in range(_cyclic_period(base)):
                rot = base[shift:] + base[:shift] if shift else base
                held += len(rot)
                if held > MAX_ROTATION_LETTERS:
                    raise ValueError(too_many)
                where[rot] = [ct.columns[y] for y in rot[1:]]
                new.append(rot)
        # x w reads back along w by the tail of x^-1 w^-1, a rotation of the
        # inverse of x w, which is stored with it.
        for rot in new:
            back = where[tuple(inv_col[rot[-j]] for j in range(len(rot)))]
            ct.rotations[rot[0]].append((where[rot], len(rot) - 1, back, rot))
    del where

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
