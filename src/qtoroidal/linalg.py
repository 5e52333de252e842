"""Sparse exact linear algebra over the library's scalar rings.

``LinOp`` is a column-sparse operator on an arbitrary hashable basis;
entries are scalar objects with exact arithmetic (QScalar, CycScalar,
QRat), tested for zero by truth value, and a ``LinOp`` is
itself falsy exactly when it is zero.  It is the one operator type:
every operator acts through ``LinOp.apply``, and a dense matrix
(``op_matrix``) is built only as input to an elimination routine (row
reduction, kernel, determinant).  Those routines and invariant-subspace
growth take a ``Field`` adapter supplying zero and one, and divide with
``/``; row reduction returns only the nonzero rows, as many as the rank.
Sums and compositions of operators accumulate in place, through
``add_into``, in a dict of columns that ``LinOp.of_cols`` then wraps.
"""

from __future__ import annotations

from functools import partial
from operator import mul, neg


def add_into(cols, a, b=None, c=None):
    """Add c (a o b) into the column dict ``cols`` in place: ``a`` alone
    when ``b`` is None, and c = 1 when ``c`` is None; the int -1 negates.
    A given ``c`` must be nonzero.

    An entry that sums to zero is dropped, so a column may be left empty
    until ``LinOp.of_cols`` wraps the dict.  A new column is a new dict,
    never one of ``a`` or ``b``, so their columns are never mutated."""
    f = (None if c is None else neg if isinstance(c, int) and c == -1
         else partial(mul, c))
    if b is None:
        for src, col in a.cols.items():
            out = cols.get(src)
            if out is None:
                cols[src] = (dict(col) if f is None
                             else {dst: f(v) for dst, v in col.items()})
                continue
            for dst, v in col.items():
                if f is not None:
                    v = f(v)
                prev = out.get(dst)
                if prev is None:
                    out[dst] = v
                else:
                    v = prev + v
                    if v:
                        out[dst] = v
                    else:
                        del out[dst]
        return
    acols = a.cols
    for src, bcol in b.cols.items():
        out = cols.get(src)
        if out is None:
            out = cols[src] = {}
        for mid, vb in bcol.items():
            acol = acols.get(mid)
            if acol is None:
                continue
            if f is not None:
                vb = f(vb)
            for dst, va in acol.items():
                w = va * vb
                prev = out.get(dst)
                if prev is None:
                    out[dst] = w
                else:
                    w = prev + w
                    if w:
                        out[dst] = w
                    else:
                        del out[dst]


class LinOp:
    """Sparse linear operator: cols[src][dst] = coefficient of dst in the
    image of basis vector src."""

    __slots__ = ("cols",)

    def __init__(self, cols=None):
        self.cols = {}
        if cols:
            for src, col in cols.items():
                clean = {dst: v for dst, v in col.items() if v}
                if clean:
                    self.cols[src] = clean

    @classmethod
    def of_cols(cls, cols):
        """The operator of a column dict built by ``add_into``, whose
        entries are nonzero: its empty columns are dropped, and the others
        are taken over, not copied."""
        r = cls.__new__(cls)
        r.cols = {src: col for src, col in cols.items() if col}
        return r

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def identity(cls, basis, one):
        return cls({b: {b: one} for b in basis})

    def is_zero(self):
        return not self.cols

    def __bool__(self):
        return bool(self.cols)

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
                if not w:
                    out.pop(dst, None)
                else:
                    out[dst] = w
        return out

    def __add__(self, other):
        cols = {src: dict(col) for src, col in self.cols.items()}
        add_into(cols, other)
        return LinOp.of_cols(cols)

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
        add_into(cols, self, other)
        return LinOp.of_cols(cols)

    def __rmul__(self, other):
        if isinstance(other, LinOp):
            return NotImplemented
        return self.scale(other)

    def scale(self, s):
        if not s:
            return LinOp.zero()
        r = LinOp.__new__(LinOp)
        r.cols = {src: {dst: v * s for dst, v in col.items()}
                  for src, col in self.cols.items()}
        return r

    def tensor(self, other):
        """Kronecker product on paired labels.  Both factors are clean and
        the scalar rings have no zero divisors, so the product is clean as
        built."""
        r = LinOp.__new__(LinOp)
        r.cols = {(s1, s2): {(d1, d2): v1 * v2 for d1, v1 in c1.items()
                             for d2, v2 in c2.items()}
                  for s1, c1 in self.cols.items()
                  for s2, c2 in other.cols.items()}
        return r

    def __eq__(self, other):
        """Every operation keeps operators clean (no zero entry, no empty
        column) and every scalar ring compares canonical forms, so two
        operators are equal exactly when their columns are."""
        if not isinstance(other, LinOp):
            return NotImplemented
        return self.cols == other.cols

    def __repr__(self):
        n = sum(len(c) for c in self.cols.values())
        return "LinOp(%d entries on %d columns)" % (n, len(self.cols))


class Field:
    """Adapter bundling the constants of an exact field."""

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one

    def is_zero(self, a):
        return not a


def _pivot(rows, col, start):
    for r in range(start, len(rows)):
        if rows[r][col]:
            return r
    return None


def rref(matrix, field):
    """Reduced row echelon form: returns (rows, pivots), the nonzero
    reduced rows in pivot order and their pivot columns; zero rows are
    dropped, so len(rows) is the rank."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        p = _pivot(rows, col, rank)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = field.one / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def kernel_basis(matrix, field):
    """Right kernel basis vectors of a nonempty rows-by-cols matrix."""
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


def determinant(matrix, field):
    rows = [list(r) for r in matrix]
    n = len(rows)
    det = field.one
    for col in range(n):
        p = _pivot(rows, col, col)
        if p is None:
            return field.zero
        if p != col:
            rows[col], rows[p] = rows[p], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = field.one / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
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


def span_grow(vectors, ops, basis, field):
    """Smallest op-invariant subspace containing the given vectors.

    Vectors are dense coefficient lists over the ordered ``basis``; ops
    are LinOps on it.  Returns an echelonized basis, as soon as it spans
    the whole space.
    """
    index = {b: k for k, b in enumerate(basis)}
    basis_rows = []

    def reduce_against(vec):
        v = list(vec)
        for row, pc in basis_rows:
            if v[pc]:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        for c, x in enumerate(v):
            if x:
                inv = field.one / x
                return [y * inv for y in v], c
        return None, None

    frontier = list(vectors)
    while frontier:
        vec = frontier.pop()
        row, pc = reduce_against(vec)
        if row is None:
            continue
        basis_rows.append((row, pc))
        if len(basis_rows) == len(row):
            break
        sparse = {basis[c]: x for c, x in enumerate(row)
                  if x}
        for op in ops:
            img = [field.zero] * len(row)
            for b, x in op.apply(sparse).items():
                img[index[b]] = x
            frontier.append(img)
    return [row for row, _ in sorted(basis_rows, key=lambda t: t[1])]
