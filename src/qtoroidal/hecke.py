"""Small-rank affine Hecke computations.

Modules are right modules; the braid generators act through the regular
representation and the commuting z-generators are pushed to the left with
the exchange rules

    s_i z_i     = z_{i+1} s_i - (q - q^-1) z_{i+1}
    s_i z_{i+1} = z_i s_i     + (q - q^-1) z_{i+1}
    s_i z_j     = z_j s_i                        (j != i, i+1)

derived from the quadratic relation and s_i z_i s_i = z_{i+1}.  Every
structural claim is re-derived from these rules by explicit computation;
nothing about submodule generators is assumed.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import DomainError, InputError
from .linalg import (Field, LinOp, kernel_basis, op_matrix, rref,
                     span_grow)
from .scalars import PolyScalar, QRat, QScalar, is_zero_elem


# ---------------------------------------------------------------------------
# permutations of {1..l}, one-line tuples
# ---------------------------------------------------------------------------

def perm_length(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])

def right_mul_s(w, i):
    """w s_i: swap the entries at positions i, i+1 (1-based)."""
    v = list(w)
    v[i - 1], v[i] = v[i], v[i - 1]
    return tuple(v)

def descent(w):
    """Some i with l(w s_i) < l(w), or None for the identity."""
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            return i
    return None

def reduced_word(w):
    word = []
    while True:
        i = descent(w)
        if i is None:
            return list(reversed(word))
        word.append(i)
        w = right_mul_s(w, i)

def all_perms(l):
    return sorted(permutations(range(1, l + 1)),
                  key=lambda w: (perm_length(w), w))


# ---------------------------------------------------------------------------
# scalar ring contexts
# ---------------------------------------------------------------------------

class SymbolicRing:
    """Z[q^{+-1}, a_1..a_l] with the parameters kept as variables."""

    def __init__(self, l):
        self.l = l
        self.variables = ("q",) + tuple("a%d" % j for j in range(1, l + 1))
        self.is_field = False

    def one(self):
        return PolyScalar.one(self.variables)

    def zero(self):
        return PolyScalar.zero(self.variables)

    def from_qscalar(self, x):
        return PolyScalar.from_qscalar(self.variables, x)

    def param(self, j):
        return PolyScalar.var(self.variables, "a%d" % j)


class QRatRing:
    """Rational functions in q with instantiated parameters."""

    def __init__(self, params):
        self.params = [p if isinstance(p, QRat) else QRat(p)
                       for p in params]
        self.is_field = True

    def one(self):
        return QRat.one()

    def zero(self):
        return QRat.zero()

    def from_qscalar(self, x):
        return QRat(x)

    def param(self, j):
        return self.params[j - 1]

    def field(self):
        return Field(QRat.zero(), QRat.one())


_QDIFF = QScalar({1: 1, -1: -1})


# ---------------------------------------------------------------------------
# the z-left normal form
# ---------------------------------------------------------------------------

def _z_expansion(w, j, memo):
    """T_w z_j as a list of (j', w', QScalar): sum of z_{j'} T_{w'} terms."""
    key = (w, j)
    if key in memo:
        return memo[key]
    i = descent(w)
    if i is None:
        out = [(j, w, QScalar.one())]
        memo[key] = out
        return out
    wp = right_mul_s(w, i)      # w = wp s_i with l(wp) = l(w) - 1
    if j not in (i, i + 1):
        out = _rmul_sigma_terms(_z_expansion(wp, j, memo), i)
    elif j == i:
        out = _rmul_sigma_terms(_z_expansion(wp, i + 1, memo), i)
        out = out + [(jj, ww, cc * (-_QDIFF))
                     for (jj, ww, cc) in _z_expansion(wp, i + 1, memo)]
    else:
        out = _rmul_sigma_terms(_z_expansion(wp, i, memo), i)
        out = out + [(jj, ww, cc * _QDIFF)
                     for (jj, ww, cc) in _z_expansion(wp, i + 1, memo)]
    out = _collect(out)
    memo[key] = out
    return out


def _rmul_sigma_terms(terms, i):
    out = []
    for (j, w, c) in terms:
        ws = right_mul_s(w, i)
        if perm_length(ws) > perm_length(w):
            out.append((j, ws, c))
        else:
            out.append((j, ws, c))
            out.append((j, w, c * _QDIFF))
    return out


def _collect(terms):
    acc = {}
    for (j, w, c) in terms:
        key = (j, w)
        acc[key] = acc[key] + c if key in acc else c
    return [(j, w, c) for (j, w), c in acc.items() if not c.is_zero()]


# ---------------------------------------------------------------------------
# the quotient modules
# ---------------------------------------------------------------------------

class HeckeModule:
    """Right module with exact matrices for the braid and z generators."""

    def __init__(self, l, ring, basis, sigma_ops, z_ops, label=""):
        self.l = l
        self.ring = ring
        self.basis = list(basis)
        self.sigma_ops = sigma_ops      # i -> LinOp
        self.z_ops = z_ops              # j -> LinOp
        self.label = label

    @property
    def dim(self):
        return len(self.basis)

    def word_op(self, word):
        """Right action of a product written left to right."""
        op = LinOp.identity(self.basis, self.ring.one())
        for item in word:
            kind, idx = item
            g = self.sigma_ops[idx] if kind == "s" else self.z_ops[idx]
            op = g * op
        return op


def build_MA(l, A=None):
    """The l!-dimensional quotient by the left ideal sending z_j to a_j.

    ``A`` lists the parameter values (QScalar/QRat/qscalar-exponents, or
    None for the symbolic ring).  Basis vectors are the permutations of
    S_l; braid generators act by the regular representation and z by the
    left normal form evaluated at A.
    """
    if l not in (1, 2, 3):
        raise InputError("only l <= 3 is materialized")
    if A is None:
        ring = SymbolicRing(l)
    else:
        ring = QRatRing([QRat(a) if isinstance(a, QScalar) else a
                         for a in A])
    perms = all_perms(l)
    qdiff = ring.from_qscalar(_QDIFF)
    sigma_ops = {}
    for i in range(1, l):
        cols = {}
        for w in perms:
            ws = right_mul_s(w, i)
            if perm_length(ws) > perm_length(w):
                cols[w] = {ws: ring.one()}
            else:
                cols[w] = {ws: ring.one(), w: qdiff}
        sigma_ops[i] = LinOp(cols)
    memo = {}
    z_ops = {}
    for j in range(1, l + 1):
        cols = {}
        for w in perms:
            col = {}
            for (jj, ww, c) in _z_expansion(w, j, memo):
                val = ring.param(jj) * ring.from_qscalar(c)
                col[ww] = col[ww] + val if ww in col else val
            cols[w] = {k: v for k, v in col.items() if not is_zero_elem(v)}
        z_ops[j] = LinOp(cols)
    return HeckeModule(l, ring, perms, sigma_ops, z_ops, label="M_A")


def verify_presentation(M):
    """All defining relations as exact operator identities on M."""
    ring = M.ring
    one = ring.one()
    q = ring.from_qscalar(QScalar.q_power(1))
    qinv = ring.from_qscalar(QScalar.q_power(-1))
    ident = LinOp.identity(M.basis, one)
    checks = {}
    for i, s in M.sigma_ops.items():
        quad = (s + ident.scale(qinv)) * (s - ident.scale(q))
        checks["quadratic s%d" % i] = quad.is_zero()
    for i in M.sigma_ops:
        for k in M.sigma_ops:
            if abs(i - k) > 1 or i >= k:
                continue
            lhs = M.word_op([("s", i), ("s", k), ("s", i)])
            rhs = M.word_op([("s", k), ("s", i), ("s", k)])
            checks["braid s%d s%d" % (i, k)] = (lhs - rhs).is_zero()
        for k in M.sigma_ops:
            if abs(i - k) > 1 and i < k:
                lhs = M.word_op([("s", i), ("s", k)])
                rhs = M.word_op([("s", k), ("s", i)])
                checks["commute s%d s%d" % (i, k)] = (lhs - rhs).is_zero()
    for j1 in M.z_ops:
        for j2 in M.z_ops:
            if j1 < j2:
                lhs = M.word_op([("z", j1), ("z", j2)])
                rhs = M.word_op([("z", j2), ("z", j1)])
                checks["commute z%d z%d" % (j1, j2)] = (lhs - rhs).is_zero()
    for i in M.sigma_ops:
        lhs = M.word_op([("s", i), ("z", i), ("s", i)])
        rhs = M.word_op([("z", i + 1)])
        checks["s%d z%d s%d = z%d" % (i, i, i, i + 1)] = \
            (lhs - rhs).is_zero()
        for j in M.z_ops:
            if j in (i, i + 1):
                continue
            lhs = M.word_op([("s", i), ("z", j)])
            rhs = M.word_op([("z", j), ("s", i)])
            checks["commute s%d z%d" % (i, j)] = (lhs - rhs).is_zero()
    return {"passed": all(checks.values()), "checks": checks}


# ---------------------------------------------------------------------------
# invariant subspaces over an exact field
# ---------------------------------------------------------------------------

def _echelon_rows(vectors, field):
    if not vectors:
        return []
    rows, _ = rref(vectors, field)
    return [r for r in rows if any(not field.is_zero(x) for x in r)]


def _subspace_key(rows):
    return tuple(tuple(repr(x) for x in r) for r in rows)


def _intersect(rows1, rows2, field, dim):
    if not rows1 or not rows2:
        return []
    # x rows1 = y rows2: solve the stacked kernel
    mat = [[rows1[r][c] if r < len(rows1) else
            -rows2[r - len(rows1)][c] for r in range(len(rows1)
                                                     + len(rows2))]
           for c in range(dim)]
    combos = kernel_basis(mat, field)
    vecs = []
    for combo in combos:
        v = [field.zero] * dim
        for r in range(len(rows1)):
            if not field.is_zero(combo[r]):
                v = [a + combo[r] * b for a, b in zip(v, rows1[r])]
        if any(not field.is_zero(x) for x in v):
            vecs.append(v)
    return _echelon_rows(vecs, field)


def invariant_subspaces(M):
    """All submodules reachable by common-z-eigenvector closure, saturated
    under sums and intersections; feasible at these dimensions.

    Returns a report with every subspace dimension found, a composition
    chain, and the one-dimensional constituents' eigenvalue data.
    """
    ring = M.ring
    if not ring.is_field:
        raise DomainError("instantiate the parameters in an exact field "
                          "first")
    field = ring.field()
    dim = M.dim
    mats = {("s", i): op_matrix(M.sigma_ops[i], M.basis, field.zero)
            for i in M.sigma_ops}
    mats.update({("z", j): op_matrix(M.z_ops[j], M.basis, field.zero)
                 for j in M.z_ops})
    gen_mats = list(mats.values())

    candidates = []
    values = [ring.param(j) for j in range(1, M.l + 1)]
    for lam in product(values, repeat=M.l):
        stacked = []
        for j in range(1, M.l + 1):
            zm = mats[("z", j)]
            stacked.extend([[zm[r][c] - (lam[j - 1] if r == c else
                                         field.zero)
                             for c in range(dim)] for r in range(dim)])
        for vec in kernel_basis(stacked, field):
            candidates.append(vec)

    subspaces = {}
    for vec in candidates:
        # re-echelonize: span_grow is only forward-reduced and keys must
        # be the canonical reduced form
        rows = _echelon_rows(span_grow([vec], gen_mats, field), field)
        subspaces[_subspace_key(rows)] = rows
    subspaces[_subspace_key([])] = []
    full = _echelon_rows([[field.one if c == r else field.zero
                           for c in range(dim)] for r in range(dim)], field)
    subspaces[_subspace_key(full)] = full

    changed = True
    while changed:
        changed = False
        items = list(subspaces.values())
        for r1 in items:
            for r2 in items:
                for rows in (_echelon_rows([list(v) for v in r1 + r2],
                                           field),
                             _intersect(r1, r2, field, dim)):
                    key = _subspace_key(rows)
                    if key not in subspaces:
                        subspaces[key] = rows
                        changed = True

    dims = sorted(len(rows) for rows in subspaces.values())
    proper = [rows for rows in subspaces.values()
              if 0 < len(rows) < dim]
    composition = _composition_chain(M, field, subspaces)
    lines = [rows for rows in proper if len(rows) == 1]
    return {
        "dims": dims,
        "proper_count": len(proper),
        "irreducible": not proper,
        "socle_lines": len(lines),
        "line_data": [_line_data(M, mats, field, rows[0])
                      for rows in lines],
        "composition": composition,
    }


def _line_data(M, mats, field, vec):
    out = {}
    for key, mat in mats.items():
        img = [sum((mat[r][c] * vec[c] for c in range(len(vec))
                    if not field.is_zero(vec[c])), field.zero)
               for r in range(len(vec))]
        lam = None
        for r in range(len(vec)):
            if not field.is_zero(vec[r]):
                lam = field.div(img[r], vec[r])
                break
        ok = all(field.is_zero(img[r] - lam * vec[r])
                 for r in range(len(vec)))
        out["%s%d" % key] = repr(lam) if ok else "not an eigenvector"
    return out


def _composition_chain(M, field, subspaces):
    """Increasing chain 0 < S_1 < ... < M through the found lattice,
    taking a minimal strictly-larger member each time."""
    dim = M.dim

    def contains(big, small):
        if not small:
            return True
        return len(_intersect(big, small, field, dim)) == len(small)

    chain_rows = []
    last = []
    while len(last) < dim:
        bigger = [rows for rows in subspaces.values()
                  if len(rows) > len(last) and contains(rows, last)]
        if not bigger:
            break
        nxt = min(bigger, key=len)
        chain_rows.append(nxt)
        last = nxt
    factors = []
    prev_dim = 0
    for rows in chain_rows:
        factors.append(len(rows) - prev_dim)
        prev_dim = len(rows)
    return {"subspace_dims": [len(r) for r in chain_rows],
            "factor_dims": factors}


def module_to_json(M):
    """Matrices and metadata of a module, JSON-ready.

    Basis labels and scalars are rendered through their canonical text
    forms; sparse entries are (dst, src, value) triples sorted for
    byte-stable output.
    """
    def op_json(op):
        entries = []
        for src, col in op.cols.items():
            for dst, v in col.items():
                entries.append([str(dst), str(src), repr(v)])
        return sorted(entries)

    return {
        "label": M.label,
        "l": M.l,
        "dim": M.dim,
        "basis": [str(b) for b in M.basis],
        "sigma": {str(i): op_json(op) for i, op in M.sigma_ops.items()},
        "z": {str(j): op_json(op) for j, op in M.z_ops.items()},
    }


# ---------------------------------------------------------------------------
# q-segments
# ---------------------------------------------------------------------------

class SegmentCollection:
    """q-segments (center exponent, length); the segment with center q^c
    and length m is the set {q^(c+1-m), q^(c+3-m), ..., q^(c+m-1)}."""

    def __init__(self, segments):
        self.segments = [(int(c), int(m)) for (c, m) in segments]
        if any(m < 1 for (_, m) in self.segments):
            raise InputError("segment lengths must be >= 1")

    @property
    def total_length(self):
        return sum(m for (_, m) in self.segments)

    def elements(self):
        out = []
        for (c, m) in self.segments:
            out.extend(c + k for k in range(1 - m, m, 2))
        return out


def segments_to_drinfeld(S, n):
    """Per-node root data of the polynomial tuple attached to segments:
    node i collects the centers of the length-i segments (as roots of
    u a - 1).  Lengths beyond n fall outside the correspondence and are
    reported, not dropped."""
    roots = {}
    out_of_range = []
    for (c, m) in S.segments:
        if m > n:
            out_of_range.append((c, m))
            continue
        roots.setdefault(m, []).append(c)
    return {"roots": {i: sorted(v) for i, v in roots.items()},
            "out_of_range": out_of_range}


# ---------------------------------------------------------------------------
# induction product
# ---------------------------------------------------------------------------

def _coset_reps(l1, l2):
    n = l1 + l2
    reps = []
    from itertools import combinations
    for pos in combinations(range(n), l1):
        word = [0] * n
        lo = 1
        for p in pos:
            word[p] = lo
            lo += 1
        hi = l1 + 1
        for p in range(n):
            if word[p] == 0:
                word[p] = hi
                hi += 1
        reps.append(tuple(word))
    return reps


def _decompose(w, l1):
    """w = (u1 x u2) d with d the minimal representative of its coset."""
    n = len(w)
    pattern = [1 if w[p] <= l1 else 2 for p in range(n)]
    d = [0] * n
    lo, hi = 1, l1 + 1
    for p in range(n):
        if pattern[p] == 1:
            d[p] = lo
            lo += 1
        else:
            d[p] = hi
            hi += 1
    d = tuple(d)
    dinv = [0] * n
    for p, v in enumerate(d):
        dinv[v - 1] = p + 1
    u = tuple(w[dinv[v - 1] - 1] for v in range(1, n + 1))
    u1 = tuple(u[:l1])
    u2 = tuple(x - l1 for x in u[l1:])
    return u1, u2, d


def zelevinsky_product(M1, M2):
    """Induced module along the parabolic embedding: the basis pairs each
    tensor vector with a minimal coset representative."""
    l1, l2 = M1.l, M2.l
    n = l1 + l2
    if n > 3:
        raise InputError("products are materialized for total size <= 3")
    if type(M1.ring) is not type(M2.ring):
        raise DomainError("factors live over different scalar rings")
    if isinstance(M1.ring, QRatRing):
        ring = QRatRing(M1.ring.params + M2.ring.params)
    else:
        raise DomainError("instantiate parameters before inducing")
    reps = _coset_reps(l1, l2)
    basis = [(b1, b2, d) for d in reps for b1 in M1.basis
             for b2 in M2.basis]
    memo = {}
    qdiff = ring.from_qscalar(_QDIFF)

    def act_parabolic(b1, b2, u1, u2, scalar):
        """Right action of T_{u1} x T_{u2} on a pure tensor; returns a
        dict {(b1', b2'): scalar}."""
        v1 = {b1: ring.one()}
        for i in reduced_word(u1):
            v1 = M1.sigma_ops[i].apply(v1)
        v2 = {b2: ring.one()}
        for i in reduced_word(u2):
            v2 = M2.sigma_ops[i].apply(v2)
        return {(c1, c2): x1 * x2 * scalar for c1, x1 in v1.items()
                for c2, x2 in v2.items()}

    sigma_ops = {}
    for i in range(1, n):
        cols = {}
        for (b1, b2, d) in basis:
            col = {}
            ds = right_mul_s(d, i)
            terms = []
            if perm_length(ds) > perm_length(d):
                terms.append((ds, ring.one()))
            else:
                terms.append((ds, ring.one()))
                terms.append((d, qdiff))
            for (w, coef) in terms:
                u1, u2, dp = _decompose(w, l1)
                for pair, val in act_parabolic(b1, b2, u1, u2,
                                               coef).items():
                    key = (pair[0], pair[1], dp)
                    col[key] = col[key] + val if key in col else val
            cols[(b1, b2, d)] = {k: v for k, v in col.items()
                                 if not is_zero_elem(v)}
        sigma_ops[i] = LinOp(cols)

    z_ops = {}
    for j in range(1, n + 1):
        cols = {}
        for (b1, b2, d) in basis:
            col = {}
            for (jj, w, c) in _z_expansion(d, j, memo):
                # the coset side contributes z_{j'} T_u T_{d'}; the pure
                # tensor absorbs z_{j'} first, then the parabolic braid
                u1, u2, dp = _decompose(w, l1)
                if jj <= l1:
                    img = M1.z_ops[jj].apply({b1: ring.from_qscalar(c)})
                    pairs = {(t, b2): x for t, x in img.items()}
                else:
                    img = M2.z_ops[jj - l1].apply(
                        {b2: ring.from_qscalar(c)})
                    pairs = {(b1, t): x for t, x in img.items()}
                for (c1, c2), val in pairs.items():
                    for pair2, x in act_parabolic(c1, c2, u1, u2,
                                                  val).items():
                        key = (pair2[0], pair2[1], dp)
                        col[key] = col[key] + x if key in col else x
            cols[(b1, b2, d)] = {k: v for k, v in col.items()
                                 if not is_zero_elem(v)}
        z_ops[j] = LinOp(cols)
    return HeckeModule(n, ring, basis, sigma_ops, z_ops,
                       label="%s (x)Z %s" % (M1.label, M2.label))


def find_isomorphism(M1, M2):
    """An invertible intertwiner of right modules, or None.

    Solves the linear system f g = g f over all generators and picks an
    invertible solution from the kernel; at these dimensions scanning a
    few kernel combinations is exhaustive enough to certify existence.
    """
    if M1.dim != M2.dim or not M1.ring.is_field:
        return None
    field = M1.ring.field()
    dim = M1.dim
    gens = [("s", i) for i in M1.sigma_ops] + [("z", j) for j in M1.z_ops]
    mats1 = {("s", i): op_matrix(M1.sigma_ops[i], M1.basis, field.zero)
             for i in M1.sigma_ops}
    mats1.update({("z", j): op_matrix(M1.z_ops[j], M1.basis, field.zero)
                  for j in M1.z_ops})
    mats2 = {("s", i): op_matrix(M2.sigma_ops[i], M2.basis, field.zero)
             for i in M2.sigma_ops}
    mats2.update({("z", j): op_matrix(M2.z_ops[j], M2.basis, field.zero)
                  for j in M2.z_ops})
    rows = []
    for g in gens:
        A, B = mats2[g], mats1[g]
        # (F B - A F)[r][c] = 0, unknowns F[x][y] flattened
        for r in range(dim):
            for c in range(dim):
                row = [field.zero] * (dim * dim)
                for k in range(dim):
                    row[r * dim + k] = row[r * dim + k] + B[k][c]
                    row[k * dim + c] = row[k * dim + c] - A[r][k]
                rows.append(row)
    basis = kernel_basis(rows, field)
    from .linalg import determinant
    for combo_bits in range(1, min(1 << len(basis), 64)):
        vec = [field.zero] * (dim * dim)
        for t, b in enumerate(basis):
            if combo_bits >> t & 1:
                vec = [x + y for x, y in zip(vec, b)]
        F = [[vec[r * dim + c] for c in range(dim)] for r in range(dim)]
        if not field.is_zero(determinant(F, field)):
            return F
    return None
