"""GF(2) linear algebra on int-packed rows, with the echelon basis kept as a
pivot dict ``{leading bit: (row, rhs)}``: a row is reduced only through the
pivots at its own set bits, never by a scan or re-sort of the basis."""

from __future__ import annotations

from typing import Iterable


class GF2System:
    """Affine rows ``row . x = rhs`` over GF(2), kept in echelon form."""

    def __init__(self, rows: Iterable[int] = (), rhs: int = 0):
        self.pivots: dict[int, tuple[int, int]] = {}
        self.consistent = True
        for row in rows:
            self.insert(row, rhs)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row: int, rhs: int = 0) -> bool:
        """Add a row; True iff independent.  A dependent 0 = 1 row marks
        the system inconsistent."""
        while row:
            hit = self.pivots.get(lead := row.bit_length() - 1)
            if hit is None:
                self.pivots[lead] = (row, rhs)
                return True
            row ^= hit[0]
            rhs ^= hit[1]
        self.consistent = self.consistent and not rhs
        return False

    def reduce(self, vec: int) -> int:
        """Canonical residue of vec modulo the row span: every pivot bit is
        cleared, highest first.  Each nonzero span member leads at a pivot, so
        the residue is one per coset, whatever the insertion order."""
        probe = vec
        while probe:
            hit = self.pivots.get(lead := probe.bit_length() - 1)
            if hit is not None:
                vec ^= hit[0]
            probe = vec & ((1 << lead) - 1)
        return vec

    def solve(self, n_cols: int) -> tuple[int, list[int]] | None:
        """None if inconsistent, else (particular solution, nullspace basis),
        by back substitution from the lowest pivot.  Free columns (below
        ``n_cols``, no pivot) are 0 in the particular solution; null vector j
        sets free column j alone."""
        if not self.consistent:
            return None
        order = sorted(self.pivots.items())

        def complete(x: int) -> int:
            for lead, (row, rhs) in order:
                if ((row & x).bit_count() + rhs) & 1:
                    x |= 1 << lead
            return x

        particular = complete(0)
        free = (j for j in range(n_cols) if j not in self.pivots)
        return particular, [complete(1 << j) ^ particular for j in free]
