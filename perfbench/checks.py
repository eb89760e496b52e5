"""Reference checks that do not use the program under test.

Braid text is parsed here by its own small parser, and homology tables are
compared as sorted tuples (i, j, rank, torsion), the shape of the CLI's JSON
output and of perfbench/references.json.
"""

from __future__ import annotations


def parse_word(text: str) -> tuple[int, list[int]]:
    """Strand count and signed letters of braid text "p=<n>; <letters>"."""
    head, _, body = text.partition(";")
    return int(head.split("=")[1]), [int(tok) for tok in body.split()]


def variant(text: str, rotation: int, flip: bool, reverse: bool) -> str:
    """A different word whose closure is the same link with a cube of the same size.

    A cyclic rotation is a conjugation, flip (sigma_i -> sigma_(p-i)) is a
    conjugation by the half twist, and reversal turns the closure upside
    down.  None changes the link or the multiset of resolution circle counts,
    so the stored reference holds and the cube keeps its size; only the
    crossing order, and with it the elimination order, changes.
    """
    p, letters = parse_word(text)
    letters = letters[rotation:] + letters[:rotation]
    if reverse:
        letters.reverse()
    if flip:
        letters = [(p - abs(x)) * (1 if x > 0 else -1) for x in letters]
    return f"p={p}; " + " ".join(map(str, letters))


def closure_components(text: str) -> int:
    """Number of cycles of the braid's strand permutation."""
    p, letters = parse_word(text)
    perm = list(range(p))
    for x in letters:
        g = abs(x)
        perm[g - 1], perm[g] = perm[g], perm[g - 1]
    seen, cycles = set(), 0
    for start in range(p):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return cycles


def canonical(entries) -> tuple:
    """Sorted (i, j, rank, torsion) tuples of a table given as lists."""
    return tuple(sorted((i, j, rank, tuple(sorted(t))) for i, j, rank, t in entries))


def euler_characteristic(entries) -> dict[str, int]:
    """Graded Euler characteristic sum (-1)^i rank q^j, keyed like the CLI's JSON."""
    coeffs: dict[int, int] = {}
    for i, j, rank, _ in entries:
        coeffs[j] = coeffs.get(j, 0) + (-rank if i % 2 else rank)
    return {str(e): c for e, c in sorted(coeffs.items()) if c}


def torus_2n_table(text: str):
    """Khovanov's closed form for the positive T(2, n), n odd; None otherwise.

    H^{0,n-2} = H^{0,n} = Z and, for k = 1 .. (n-1)/2, Z at (2k, 4k+n-2),
    Z at (2k+1, 4k+n+2) and Z/2 at (2k+1, 4k+n) (Khovanov, arXiv math/9908171,
    in the grading where the right-handed trefoil has H^{0,1} = Z).
    """
    p, letters = parse_word(text)
    n = len(letters)
    if p != 2 or n < 3 or n % 2 == 0 or any(x != 1 for x in letters):
        return None
    entries = [[0, n - 2, 1, []], [0, n, 1, []]]
    for k in range(1, (n - 1) // 2 + 1):
        entries += [
            [2 * k, 4 * k + n - 2, 1, []],
            [2 * k + 1, 4 * k + n + 2, 1, []],
            [2 * k + 1, 4 * k + n, 0, [2]],
        ]
    return canonical(entries)


def theorem_verdict(components: int) -> dict[str, str]:
    """The verifier's expected check statuses for a positive braid closure."""
    return {
        "negative_degree_vanishing": "pass",
        "h0_structure": "pass" if components == 1 else "skip",
        "h1_vanishing": "pass",
        "kernel_structure": "pass",
        "reduction_consistency": "pass",
    }
