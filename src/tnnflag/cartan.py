"""Generalized Cartan matrices, standard type constructors, and vertex thickening.

A generalized Cartan matrix (GCM) is an integer matrix with 2 on the
diagonal, nonpositive entries off it, and a symmetric vanishing pattern.
Thickening adjoins extra vertices coupled to everything else by -2; the
extra vertices carry labels ``inf1, inf2, ...`` so they stay
distinguishable from the original ones in every downstream report.
"""

from __future__ import annotations

from dataclasses import dataclass

INF_PREFIX = "inf"


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """Vertex labels plus the integer matrix ``a[i][j]``.

    >>> GeneralizedCartanMatrix(("1", "2"), ((2, -1), (-1, 2))).rank
    2
    """

    labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.labels)
        if len(set(self.labels)) != m:
            raise ValueError("duplicate vertex labels")
        if len(self.entries) != m or any(len(row) != m for row in self.entries):
            raise ValueError("matrix shape does not match label count")
        for i in range(m):
            if self.entries[i][i] != 2:
                raise ValueError(f"diagonal entry a[{i}][{i}] != 2")
            for j in range(m):
                if i == j:
                    continue
                if self.entries[i][j] > 0:
                    raise ValueError(f"positive off-diagonal entry a[{i}][{j}]")
                if (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                    raise ValueError(f"asymmetric vanishing at ({i},{j})")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def inf_positions(self) -> tuple[int, ...]:
        """Positions of thickening vertices (labels ``inf*``)."""
        return tuple(i for i, lab in enumerate(self.labels) if lab.startswith(INF_PREFIX))


def _chain(rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def cartan_of_type(family: str, rank: int) -> GeneralizedCartanMatrix:
    """Standard GCM for a family letter and rank.

    Supported: A (rank >= 1), B/C/D (rank >= 2), G (rank 2 only: the
    matrix [[2, -1], [-3, 2]]), affine-A (rank >= 1, giving a matrix of
    size rank+1).
    """
    fam = family.strip().upper().replace("_", "-")
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if fam == "A":
        a = _chain(rank)
        labels = tuple(str(i + 1) for i in range(rank))
    elif fam in ("B", "C"):
        if rank < 2:
            raise ValueError(f"type {fam} needs rank >= 2")
        a = _chain(rank)
        # double bond at the far end; B and C are transposes of each other
        if fam == "B":
            a[rank - 2][rank - 1] = -2
        else:
            a[rank - 1][rank - 2] = -2
        labels = tuple(str(i + 1) for i in range(rank))
    elif fam == "D":
        if rank < 2:
            raise ValueError("type D needs rank >= 2")
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i in range(rank - 2):
            a[i][i + 1] = a[i + 1][i] = -1
        if rank >= 3:
            a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
        labels = tuple(str(i + 1) for i in range(rank))
    elif fam == "G":
        if rank != 2:
            raise ValueError(f"type G needs rank 2, got {rank}")
        a = [[2, -1], [-3, 2]]
        labels = ("1", "2")
    elif fam == "AFFINE-A":
        size = rank + 1
        if size == 2:
            a = [[2, -2], [-2, 2]]
        else:
            a = _chain(size)
            a[0][size - 1] = a[size - 1][0] = -1
        labels = tuple(str(i) for i in range(size))
    else:
        raise ValueError(f"unsupported family {family!r}")
    return GeneralizedCartanMatrix(labels, tuple(tuple(row) for row in a))


def thicken(gcm: GeneralizedCartanMatrix, n: int) -> GeneralizedCartanMatrix:
    """Adjoin ``n - 1`` vertices coupled by -2 to every other vertex.

    ``n`` counts product factors, so ``n = 1`` returns ``gcm`` unchanged.
    The restriction of the result to the original positions equals ``gcm``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return gcm
    extra = n - 1
    new_labels = tuple(f"{INF_PREFIX}{l}" for l in range(1, extra + 1))
    for lab in new_labels:
        if lab in gcm.labels:
            raise ValueError(f"label collision on {lab!r}; matrix is already thickened")
    m = gcm.rank
    size = m + extra
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == j:
                row.append(2)
            elif i < m and j < m:
                row.append(gcm.entries[i][j])
            else:
                row.append(-2)
        rows.append(tuple(row))
    out = GeneralizedCartanMatrix(gcm.labels + new_labels, tuple(rows))
    # the footnote-level requirement: every coupling to a new vertex is nonzero
    for p in out.inf_positions():
        for q in range(size):
            if p != q and out.entries[p][q] == 0:
                raise AssertionError("thickening produced a zero coupling")
    return out
