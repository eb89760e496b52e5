"""Braid words: parsing, crossing classification, permutations, closures.

A braid word on p strands is a sequence of signed Artin generators.  The
letter k > 0 stands for sigma_k (crossing strands k, k+1), k < 0 for its
inverse.  Crossings of the closure are classified into pairs (i, alpha):
generator index i and occurrence number alpha, counted top to bottom, and
are totally ordered by (i, alpha) lexicographically.  The closure's arcs are
numbered in the order the word first meets them; the top arc of each strand
position is the arc its last letter leaves, so closing the strands needs no
relabelling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagram import Crossing, Diagram, _cycles
from .errors import GeneratorBudgetError, InputError, NonPositiveWordError

# Every free loop doubles the generators of every vertex of the cube, so more
# than this many give over 2^64 per vertex: more than any machine can index,
# whatever the crossing cap.
MAX_FREE_LOOPS = 64

_STRAND_DIRECTIVE = re.compile(r"^\s*p\s*=\s*(\d+)\s*;")


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[tuple[int, int], ...]  # (generator, sign)

    def __post_init__(self):
        if self.strands < 1:
            raise InputError(f"strand count must be >= 1, got {self.strands}")
        for gen, sign in self.letters:
            if not 1 <= gen <= self.strands - 1:
                raise InputError(
                    f"generator {gen} out of range for {self.strands} strands"
                )
            if sign not in (1, -1):
                raise InputError(f"letter sign must be +1 or -1, got {sign}")

    @property
    def is_positive(self) -> bool:
        return all(sign == 1 for _, sign in self.letters)

    @property
    def crossings(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        body = " ".join(str(gen * sign) for gen, sign in self.letters)
        return f"p={self.strands}; {body}".rstrip()


@dataclass(frozen=True, order=True)
class CrossingId:
    generator: int
    occurrence: int


@dataclass(frozen=True)
class BraidPermutation:
    mapping: tuple[int, ...]  # mapping[k] = image of strand k+1
    cycles: tuple[tuple[int, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.cycles)


def parse_braid(text: str) -> BraidWord:
    """Parse braid text: optional "p=<int>;" directive, then signed integers."""
    explicit = None
    m = _STRAND_DIRECTIVE.match(text)
    if m:
        explicit = int(m.group(1))
        text = text[m.end():]
    letters = []
    for tok in text.split():
        try:
            k = int(tok)
        except ValueError:
            raise InputError(f"malformed braid letter {tok!r}") from None
        if k == 0:
            raise InputError("0 is not a braid generator")
        letters.append((abs(k), 1 if k > 0 else -1))
    default = max((gen for gen, _ in letters), default=0) + 1
    strands = default if explicit is None else explicit
    if explicit is not None and letters and explicit < default:
        raise InputError(
            f"strand count {explicit} too small for generator {default - 1}"
        )
    return BraidWord(strands=strands, letters=tuple(letters))


def crossing_ids(w: BraidWord) -> list[CrossingId]:
    """CrossingId for each letter, in word order."""
    seen: dict[int, int] = {}
    out = []
    for gen, _ in w.letters:
        seen[gen] = seen.get(gen, 0) + 1
        out.append(CrossingId(gen, seen[gen]))
    return out


def braid_permutation(w: BraidWord) -> BraidPermutation:
    """Underlying permutation of the strands; cycle count = closure components."""
    perm = list(range(w.strands))
    for gen, _ in w.letters:
        perm[gen - 1], perm[gen] = perm[gen], perm[gen - 1]
    return BraidPermutation(mapping=tuple(s + 1 for s in perm),
                            cycles=tuple(tuple(s + 1 for s in c) for c in _cycles(perm)))


def braid_closure(w: BraidWord) -> Diagram:
    """Compile the closure of w into a Diagram.

    Crossings are emitted in the (i, alpha) order, which fixes the cube's
    coordinate / sign convention for braid inputs.  Strands that carry no
    letters close into free loops.  Arc labels are consecutive integers in
    the order the word first meets the arcs; the top arc of each strand
    position is the arc its last letter leaves, which closes the strand.
    Every arc keeps the strand position it lives on, recorded so that
    resolutions of braid closures can be matched against strand indices.
    Raises GeneratorBudgetError, before any strand is laid out, when more
    than MAX_FREE_LOOPS strands carry no letter.
    """
    p = w.strands
    last = {pos: k for k, (gen, _) in enumerate(w.letters) for pos in (gen, gen + 1)}
    if p - len(last) > MAX_FREE_LOOPS:
        raise GeneratorBudgetError(
            f"{p} strands leave {p - len(last)} without a letter: each closes into a "
            f"free loop that doubles every resolution's generators, and more than "
            f"{MAX_FREE_LOOPS} give over 2^{MAX_FREE_LOOPS} per resolution")
    cur = list(range(p))  # cur[pos - 1]: the arc position pos carries so far
    position = list(range(1, p + 1))  # position[a]: the strand position of arc a
    label: dict[int, int] = {}
    crossings = []
    for k, (gen, sign) in enumerate(w.letters):
        t_lo, t_hi = cur[gen - 1], cur[gen]
        for pos in (gen, gen + 1):
            if last[pos] == k:  # the closure: arc pos - 1 is also the top arc
                cur[pos - 1] = pos - 1
            else:
                cur[pos - 1] = len(position)
                position.append(pos)
        b_lo, b_hi = cur[gen - 1], cur[gen]
        if sign == 1:
            endpoints = (t_lo, b_lo, b_hi, t_hi)  # under enters at top-left
        else:
            endpoints = (t_hi, t_lo, b_lo, b_hi)  # under enters at top-right
        labels = tuple(label.setdefault(a, len(label)) for a in endpoints)
        crossings.append((gen, Crossing(endpoints=labels, sign=sign)))
    # A stable sort by generator keeps each one's occurrences in word order.
    crossings.sort(key=lambda item: item[0])
    free_positions = tuple(pos for pos in range(1, p + 1) if pos not in last)
    return Diagram(
        crossings=tuple(x for _, x in crossings),
        free_loops=len(free_positions),
        arc_positions=tuple(position[a] for a in label),
        free_loop_positions=free_positions,
        strands=p,
    )


def reduced_diagram(w: BraidWord) -> BraidWord:
    """The reduced word: one occurrence of each generator used, ascending.

    Its closure is isotopic to an unknot or an unlink of unknots; only
    defined for positive words.
    """
    if not w.is_positive:
        raise NonPositiveWordError("reduced_diagram requires a positive braid word")
    gens = sorted({gen for gen, _ in w.letters})
    return BraidWord(strands=w.strands, letters=tuple((g, 1) for g in gens))
