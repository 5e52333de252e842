"""Sparse exact linear algebra over the library's scalar rings.

``LinOp`` is a column-sparse operator on an arbitrary hashable basis;
entries are scalar objects with exact arithmetic (QScalar, CycScalar,
QRat, PolyScalar).  The dense field routines (row reduction, kernel,
inverse, determinant, invariant-subspace growth) take a ``Field`` adapter
supplying zero, one and division.
"""

from __future__ import annotations

from .errors import DomainError
from .scalars import is_zero_elem


class LinOp:
    """Sparse linear operator: cols[src][dst] = coefficient of dst in the
    image of basis vector src."""

    __slots__ = ("cols",)

    def __init__(self, cols=None):
        self.cols = {}
        if cols:
            for src, col in cols.items():
                clean = {dst: v for dst, v in col.items()
                         if not is_zero_elem(v)}
                if clean:
                    self.cols[src] = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def identity(cls, basis, one):
        return cls({b: {b: one} for b in basis})

    def is_zero(self):
        return not self.cols

    def entry(self, dst, src):
        return self.cols.get(src, {}).get(dst)

    def apply(self, vec):
        """Image of {basis: scalar}."""
        out = {}
        for src, c in vec.items():
            col = self.cols.get(src)
            if col is None:
                continue
            for dst, v in col.items():
                w = v * c
                if dst in out:
                    w = out[dst] + w
                if is_zero_elem(w):
                    out.pop(dst, None)
                else:
                    out[dst] = w
        return out

    def __add__(self, other):
        cols = {}
        for src in set(self.cols) | set(other.cols):
            col = dict(self.cols.get(src, {}))
            for dst, v in other.cols.get(src, {}).items():
                w = col[dst] + v if dst in col else v
                if is_zero_elem(w):
                    col.pop(dst, None)
                else:
                    col[dst] = w
            if col:
                cols[src] = col
        r = LinOp.__new__(LinOp)
        r.cols = cols
        return r

    def __neg__(self):
        r = LinOp.__new__(LinOp)
        r.cols = {src: {dst: -v for dst, v in col.items()}
                  for src, col in self.cols.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Operator composition, or entrywise scaling by a scalar."""
        if not isinstance(other, LinOp):
            return self.scale(other)
        cols = {}
        for src, col in other.cols.items():
            out = self.apply(col)
            if out:
                cols[src] = out
        r = LinOp.__new__(LinOp)
        r.cols = cols
        return r

    def __rmul__(self, other):
        if isinstance(other, LinOp):
            return NotImplemented
        return self.scale(other)

    def inverse(self):
        """Inverse of a diagonal operator (all that series logs need)."""
        cols = {}
        for src, col in self.cols.items():
            if list(col) != [src]:
                raise DomainError("only diagonal operators are inverted "
                                  "here")
            v = col[src]
            cols[src] = {src: v.inverse() if hasattr(v, "inverse")
                         else 1 / v}
        return LinOp(cols)

    def scale(self, s):
        if is_zero_elem(s):
            return LinOp.zero()
        r = LinOp.__new__(LinOp)
        r.cols = {src: {dst: v * s for dst, v in col.items()}
                  for src, col in self.cols.items()}
        return r

    def tensor(self, other):
        """Kronecker product on paired labels."""
        cols = {}
        for s1, c1 in self.cols.items():
            for s2, c2 in other.cols.items():
                col = {}
                for d1, v1 in c1.items():
                    for d2, v2 in c2.items():
                        col[(d1, d2)] = v1 * v2
                cols[(s1, s2)] = col
        return LinOp(cols)

    def __eq__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        n = sum(len(c) for c in self.cols.values())
        return "LinOp(%d entries on %d columns)" % (n, len(self.cols))


class Field:
    """Adapter bundling the constants and division of an exact field."""

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return is_zero_elem(a)


def _pivot(rows, col, start, field):
    for r in range(start, len(rows)):
        if not field.is_zero(rows[r][col]):
            return r
    return None


def rref(matrix, field):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        p = _pivot(rows, col, rank, field)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = field.div(field.one, rows[rank][col])
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not field.is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def kernel_basis(matrix, field, ncols=None):
    """Right kernel basis vectors of a rows-by-cols matrix."""
    if not matrix:
        return [[field.one if i == j else field.zero
                 for j in range(ncols or 0)] for i in range(ncols or 0)]
    ncols = len(matrix[0])
    rows, pivots = rref(matrix, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def invert_matrix(matrix, field):
    n = len(matrix)
    aug = [list(matrix[r]) + [field.one if c == r else field.zero
                              for c in range(n)] for r in range(n)]
    rows, pivots = rref(aug, field)
    if pivots != list(range(n)):
        raise DomainError("matrix is singular")
    return [rows[r][n:] for r in range(n)]


def determinant(matrix, field):
    rows = [list(r) for r in matrix]
    n = len(rows)
    det = field.one
    for col in range(n):
        p = _pivot(rows, col, col, field)
        if p is None:
            return field.zero
        if p != col:
            rows[col], rows[p] = rows[p], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = field.div(field.one, rows[col][col])
        for r in range(col + 1, n):
            if not field.is_zero(rows[r][col]):
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def op_matrix(op, basis, zero):
    """Dense rows-by-cols matrix of a LinOp over an ordered basis."""
    index = {b: k for k, b in enumerate(basis)}
    n = len(basis)
    rows = [[zero] * n for _ in range(n)]
    for src, col in op.cols.items():
        j = index[src]
        for dst, v in col.items():
            rows[index[dst]][j] = v
    return rows


def span_grow(vectors, ops, field, dim_cap=None):
    """Smallest op-invariant subspace containing the given vectors.

    Vectors are dense coefficient lists; ops are dense matrices.  Returns
    an echelonized basis.
    """
    basis_rows = []

    def reduce_against(vec):
        v = list(vec)
        for row, pc in basis_rows:
            if not field.is_zero(v[pc]):
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        for c, x in enumerate(v):
            if not field.is_zero(x):
                inv = field.div(field.one, x)
                return [y * inv for y in v], c
        return None, None

    frontier = list(vectors)
    while frontier:
        vec = frontier.pop()
        row, pc = reduce_against(vec)
        if row is None:
            continue
        basis_rows.append((row, pc))
        if dim_cap is not None and len(basis_rows) > dim_cap:
            raise DomainError("invariant subspace exceeded the cap")
        for mat in ops:
            img = [sum_entries(mat, row, field, r)
                   for r in range(len(row))]
            frontier.append(img)
    return [row for row, _ in sorted(basis_rows, key=lambda t: t[1])]


def sum_entries(mat, vec, field, r):
    acc = field.zero
    for c, x in enumerate(vec):
        if not field.is_zero(x):
            acc = acc + mat[r][c] * x
    return acc
