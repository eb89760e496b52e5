"""Cube of resolutions -> bigraded chain complex with integer differentials.

Circle labels are ONE (degree +1) and EX (degree -1).  Column i of the
complex collects all labeled states over resolutions of weight |epsilon| = i;
the differential is the signed sum of per-edge merge (m) and split (Delta)
maps, with the sign (-1)^(number of 1s before the flipped coordinate).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .diagram import Diagram, EdgeTransition, Resolution, classify_edge, resolve
from .errors import CapExceededError, InputError

ONE = 0
EX = 1

DEFAULT_CAP = 20


class LabeledState(NamedTuple):
    epsilon: tuple[int, ...]
    labels: tuple[int, ...]


def q_degree(s: LabeledState, d: Diagram, normalized: bool = True) -> int:
    """Internal grading of a labeled state.

    Unnormalized: (#ONE - #EX) + |epsilon|.  Normalized adds the global
    shift n+ - 2n-.
    """
    deg = sum(1 if l == ONE else -1 for l in s.labels) + sum(s.epsilon)
    if normalized:
        deg += d.n_plus - 2 * d.n_minus
    return deg


def apply_edge_map(t: EdgeTransition, s: LabeledState):
    """Image of a labeled state under the per-edge map, unsigned.

    Returns a list of (LabeledState, coefficient) on t.to_epsilon.  Merge
    multiplies the two merging labels (m); split comultiplies the splitting
    label (Delta); all other circles keep their labels through t.unchanged.
    """
    if s.epsilon != t.from_epsilon:
        raise InputError("state does not live on the edge's source resolution")
    n_to = len(s.labels) + (1 if t.kind == "split" else -1)
    base = [None] * n_to
    for src, dst in t.unchanged.items():
        base[dst] = s.labels[src]
    out = []
    if t.kind == "merge":
        ia, ib, ic = t.merged
        la, lb = s.labels[ia], s.labels[ib]
        if la == EX and lb == EX:
            return []
        base[ic] = EX if (la == EX or lb == EX) else ONE
        out.append((LabeledState(t.to_epsilon, tuple(base)), 1))
    else:
        ia, ib, ic = t.split
        if s.labels[ia] == EX:
            base[ib] = base[ic] = EX
            out.append((LabeledState(t.to_epsilon, tuple(base)), 1))
        else:
            for lb, lc in ((ONE, EX), (EX, ONE)):
                img = list(base)
                img[ib], img[ic] = lb, lc
                out.append((LabeledState(t.to_epsilon, tuple(img)), 1))
    return out


@dataclass(frozen=True)
class ChainComplex:
    diagram: Diagram
    bases: tuple[tuple[LabeledState, ...], ...]  # index = homological column
    q_unnorm: tuple[tuple[int, ...], ...]
    diffs: tuple[dict, ...]  # diffs[i]: {(row, col): coef}, column i -> i+1

    @property
    def m(self) -> int:
        return self.diagram.crossing_count

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def _states_of(res: Resolution):
    for labels in product((ONE, EX), repeat=res.circle_count):
        yield LabeledState(res.epsilon, labels)


def build_complex(d: Diagram, cap: int = DEFAULT_CAP) -> ChainComplex:
    """Enumerate the 2^m cube and assemble bases and differentials.

    Basis order within a column: epsilon ascending as an m-bit integer
    (bit j = epsilon[j]), then label vectors lexicographically with
    ONE < EX.  Raises CapExceededError when m exceeds the cap.
    """
    m = d.crossing_count
    if m > cap:
        raise CapExceededError(m, cap)

    resolutions: dict[tuple[int, ...], Resolution] = {}
    columns: list[list[tuple[int, ...]]] = [[] for _ in range(m + 1)]
    for code in range(2 ** m):
        eps = tuple((code >> j) & 1 for j in range(m))
        resolutions[eps] = resolve(d, eps)
        columns[sum(eps)].append(eps)

    bases: list[list[LabeledState]] = []
    index: list[dict[LabeledState, int]] = []
    q_unnorm: list[list[int]] = []
    for i in range(m + 1):
        col: list[LabeledState] = []
        for eps in columns[i]:
            col.extend(_states_of(resolutions[eps]))
        bases.append(col)
        index.append({s: k for k, s in enumerate(col)})
        q_unnorm.append([q_degree(s, d, normalized=False) for s in col])

    diffs: list[dict] = []
    for i in range(m):
        entries: dict[tuple[int, int], int] = {}
        for eps in columns[i]:
            res_from = resolutions[eps]
            for j in range(m):
                if eps[j] == 1:
                    continue
                target = eps[:j] + (1,) + eps[j + 1:]
                t = classify_edge(res_from, resolutions[target])
                sign = -1 if sum(eps[:j]) % 2 else 1
                for s in _states_of(res_from):
                    col_idx = index[i][s]
                    for img, coef in apply_edge_map(t, s):
                        row_idx = index[i + 1][img]
                        key = (row_idx, col_idx)
                        v = entries.get(key, 0) + sign * coef
                        if v:
                            entries[key] = v
                        else:
                            entries.pop(key, None)
        assert all(abs(v) == 1 for v in entries.values()), \
            "cube differential entries must be 0 or +-1"
        diffs.append(entries)

    return ChainComplex(
        diagram=d,
        bases=tuple(tuple(b) for b in bases),
        q_unnorm=tuple(tuple(q) for q in q_unnorm),
        diffs=tuple(diffs),
    )
