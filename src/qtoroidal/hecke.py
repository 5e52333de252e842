"""Affine Hecke computations: the modules M_A for l <= 4, their
submodule lattices, and induction products of total size <= 3.

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

from itertools import combinations, permutations

from .errors import AlgorithmFailure, InputError
from .linalg import (Field, LinOp, determinant, kernel_basis, op_matrix,
                     rref, span_grow)
from .scalars import QRat, QScalar


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
# the scalar ring context
# ---------------------------------------------------------------------------

class QRatRing:
    """Rational functions in q with instantiated parameters."""

    def __init__(self, params):
        self.params = [p if isinstance(p, QRat) else QRat(p)
                       for p in params]

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
    """Terms z_j T_w times T_i, by the Hecke rule T_w T_i = T_{w s_i},
    plus (q - q^-1) T_w when l(w s_i) < l(w)."""
    out = []
    for (j, w, c) in terms:
        ws = right_mul_s(w, i)
        out.append((j, ws, c))
        if perm_length(ws) < perm_length(w):
            out.append((j, w, c * _QDIFF))
    return out


def _collect(terms):
    acc = {}
    for (j, w, c) in terms:
        key = (j, w)
        acc[key] = acc[key] + c if key in acc else c
    return [(j, w, c) for (j, w), c in acc.items() if c]


# ---------------------------------------------------------------------------
# the quotient modules
# ---------------------------------------------------------------------------

class HeckeModule:
    """Right module with one sparse ``LinOp`` per braid and z generator."""

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

    def generators(self):
        """(("s", i), op) for each braid generator, then (("z", j), op)
        for each z generator."""
        return ([(("s", i), op) for i, op in self.sigma_ops.items()]
                + [(("z", j), op) for j, op in self.z_ops.items()])

    def word_op(self, word):
        """Right action of a product written left to right."""
        gens = dict(self.generators())
        op = LinOp.identity(self.basis, self.ring.one())
        for item in word:
            op = gens[item] * op
        return op


def build_MA(l, A):
    """The l!-dimensional quotient by the left ideal sending z_j to a_j.

    ``A`` lists the l nonzero parameter values, each a QRat, a QScalar or
    an int or Fraction taken as that constant (so 2 is a = 2, not q^2);
    the module lives over Q(q).  A zero parameter raises InputError:
    each z_j must act invertibly.  Basis vectors are the permutations of
    S_l; braid generators act by the regular representation and z by the
    left normal form evaluated at A.
    """
    if l not in (1, 2, 3, 4):
        raise InputError("only l <= 4 is materialized")
    if len(A) != l:
        raise InputError("l = %d needs %d parameters, got %d"
                         % (l, l, len(A)))
    ring = QRatRing(A)
    for j, a in enumerate(ring.params, 1):
        if not a:
            raise InputError("parameter a_%d is zero, but z_%d must "
                             "act invertibly" % (j, j))
    perms = all_perms(l)
    memo = {}

    def operator(terms_of):
        """The operator sending w to T_w g, from the z_{j'} T_{w'} terms
        of T_w g; z_{j'} acts by a_{j'}, and j' is None for g = T_i."""
        cols = {}
        for w in perms:
            col = {}
            for (jj, ww, c) in terms_of(w):
                val = ring.from_qscalar(c)
                if jj is not None:
                    val = ring.param(jj) * val
                col[ww] = col[ww] + val if ww in col else val
            cols[w] = col
        return LinOp(cols)

    sigma_ops = {i: operator(lambda w: _rmul_sigma_terms(
        [(None, w, QScalar.one())], i)) for i in range(1, l)}
    z_ops = {j: operator(lambda w: _z_expansion(w, j, memo))
             for j in range(1, l + 1)}
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
        checks["quadratic s%d" % i] = not quad
    for i in M.sigma_ops:
        for k in M.sigma_ops:
            if abs(i - k) > 1 or i >= k:
                continue
            lhs = M.word_op([("s", i), ("s", k), ("s", i)])
            rhs = M.word_op([("s", k), ("s", i), ("s", k)])
            checks["braid s%d s%d" % (i, k)] = lhs == rhs
        for k in M.sigma_ops:
            if abs(i - k) > 1 and i < k:
                lhs = M.word_op([("s", i), ("s", k)])
                rhs = M.word_op([("s", k), ("s", i)])
                checks["commute s%d s%d" % (i, k)] = lhs == rhs
    for j1 in M.z_ops:
        for j2 in M.z_ops:
            if j1 < j2:
                lhs = M.word_op([("z", j1), ("z", j2)])
                rhs = M.word_op([("z", j2), ("z", j1)])
                checks["commute z%d z%d" % (j1, j2)] = lhs == rhs
    for i in M.sigma_ops:
        lhs = M.word_op([("s", i), ("z", i), ("s", i)])
        rhs = M.word_op([("z", i + 1)])
        checks["s%d z%d s%d = z%d" % (i, i, i, i + 1)] = lhs == rhs
        for j in M.z_ops:
            if j in (i, i + 1):
                continue
            lhs = M.word_op([("s", i), ("z", j)])
            rhs = M.word_op([("z", j), ("s", i)])
            checks["commute s%d z%d" % (i, j)] = lhs == rhs
    return {"passed": all(checks.values()), "checks": checks}


# ---------------------------------------------------------------------------
# invariant subspaces over an exact field
# ---------------------------------------------------------------------------

def _subspace_key(rows):
    """A subspace's reduced echelon rows as a hashable value; every ring
    hashes and compares its canonical form."""
    return tuple(tuple(r) for r in rows)


def _sum_and_meet(rows1, rows2, field, dim):
    """U + W and U ∩ W from one row reduction (Zassenhaus): reduce the
    rows [u | u] and [w | 0].  Rows pivoting in the left half give U + W
    by their left halves, the others U ∩ W by their right halves, both
    as reduced echelon rows."""
    zeros = [field.zero] * dim
    rows, pivots = rref([u + u for u in rows1] + [w + zeros for w in rows2],
                        field)
    k = sum(1 for c in pivots if c < dim)
    return [r[:dim] for r in rows[:k]], [r[dim:] for r in rows[k:]]


def _contains_rows(big, small, field):
    """A row space contains another exactly when stacking their rows adds
    no rank."""
    return len(rref(big + small, field)[0]) == len(big)


def invariant_subspaces(M):
    """The submodules of M found from its joint z-eigenvectors, saturated
    under sums and intersections.

    Only orderings of the parameters are tried as joint z-weights.  By the
    left normal form (``_z_expansion``) each z_j is upper triangular in
    the ``all_perms`` basis, with the parameters in some order down the
    diagonals of z_1..z_l; the last nonzero coordinate of a common
    eigenvector therefore reads off its weight as one such ordering.

    When the parameters are pairwise distinct, each joint weight space is
    a line, T_i v_λ lies in span(v_λ, v_{s_i λ}) by the Bernstein relation
    (G. Lusztig, "Affine Hecke algebras and their graded version", JAMS 2,
    1989), and every submodule is a sum of weight spaces.  The lattice is
    then read off the weight graph (``_weight_lattice``), whose premises
    are checked on M, not assumed; on M_A it decides Kato's criterion
    (S. Kato, J. Fac. Sci. Univ. Tokyo 28, 1981): M_A is irreducible
    exactly when no ratio a_i/a_j is q^{±2}.  A repeated parameter makes
    the z_j non-semisimple, and then each joint eigenvector is grown to
    the submodule it generates (``_closure_lattice``).

    Returns a report with every subspace dimension found, a composition
    chain, and the one-dimensional constituents' eigenvalue data.
    """
    values = [M.ring.param(j) for j in range(1, M.l + 1)]
    lattice = (_weight_lattice if len(set(values)) == len(values)
               else _closure_lattice)
    members, contains, line_vector = lattice(M, values)
    proper = [s for s in members if 0 < len(s) < M.dim]
    lines = [s for s in proper if len(s) == 1]
    return {
        "dims": sorted(len(s) for s in members),
        "proper_count": len(proper),
        "irreducible": not proper,
        "socle_lines": len(lines),
        "line_data": [_line_data(M, line_vector(s)) for s in lines],
        "composition": _composition_chain(M.dim, members, contains),
    }


def _saturate(members, key, sum_and_meet):
    """Close a member list under sums and intersections in one pass: each
    member meets every earlier member once, and a sum or intersection not
    seen before joins the end of the list."""
    seen = {key(s) for s in members}
    for i, s1 in enumerate(members):
        for s2 in members[:i]:
            for s in sum_and_meet(s1, s2):
                k = key(s)
                if k not in seen:
                    seen.add(k)
                    members.append(s)
    return members


def _closure_lattice(M, values):
    """Members as reduced echelon rows: each joint z-eigenvector, a kernel
    vector of the stacked system z_j - λ_j, grown to the submodule it
    generates, then the zero and whole spaces; closed by ``_sum_and_meet``.
    Returns the members, their containment test and each line's vector."""
    field = M.ring.field()
    dim = M.dim
    ops = [op for _, op in M.generators()]
    zs = [op_matrix(M.z_ops[j], M.basis, field.zero)
          for j in range(1, M.l + 1)]
    subspaces = {}
    # a repeated value repeats orderings: try each distinct one once
    for lam in dict.fromkeys(permutations(values)):
        stacked = [row[:r] + [row[r] - x] + row[r + 1:]
                   for zm, x in zip(zs, lam) for r, row in enumerate(zm)]
        for vec in kernel_basis(stacked, field):
            # re-echelonize: span_grow is only forward-reduced and keys
            # must be the canonical reduced form
            rows = rref(span_grow([vec], ops, M.basis, field), field)[0]
            subspaces[_subspace_key(rows)] = rows
    subspaces[_subspace_key([])] = []
    full = [[field.one if c == r else field.zero for c in range(dim)]
            for r in range(dim)]
    subspaces[_subspace_key(full)] = full
    members = _saturate(list(subspaces.values()), _subspace_key,
                        lambda a, b: _sum_and_meet(a, b, field, dim))
    return (members,
            lambda big, small: _contains_rows(big, small, field),
            lambda rows: {b: x for b, x in zip(M.basis, rows[0]) if x})


def _weight_vector(M, zrows, diag, r, lam):
    """The joint z-eigenvector v_λ with v_r = 1 and no coordinate past r,
    by back-substitution in the upper triangular z_j: for k < r,
    v_k = Σ_{m>k} z_j[k][m]·v_m / (λ_j − z_j[k][k]) for the first j with
    z_j[k][k] ≠ λ_j.  Returned as a sparse vector in basis order."""
    vec = {r: M.ring.one()}
    for k in range(r - 1, -1, -1):
        j = next(j for j, x in enumerate(diag[k]) if x != lam[j])
        acc = None
        for m, c in zrows[j][k].items():
            if m > k and m in vec:
                t = c * vec[m]
                acc = t if acc is None else acc + t
        if acc:
            vec[k] = acc / (lam[j] - diag[k][j])
    return {M.basis[k]: vec[k] for k in sorted(vec)}


def _weight_lattice(M, values):
    """Members as sets of weights, each weight named by the basis index
    where its joint z-eigenvalues sit on the diagonals: the set reachable
    from each weight in the weight graph, then the empty and whole sets;
    closed by union and intersection.  Returns the members, set inclusion
    and each line's weight vector.

    The graph has an edge λ → s_i λ when T_i v_λ = α·v_λ + β·v_{s_i λ}
    with β ≠ 0; α and β are read at the last coordinates of v_λ and
    v_{s_i λ}, where each is 1.  Raises ``AlgorithmFailure`` when a weight
    sits on the diagonal more than once, when the weight vectors found do
    not span M, when a v_λ is not a joint eigenvector, or when T_i v_λ
    leaves span(v_λ, v_{s_i λ}).
    """
    basis = M.basis
    zero = M.ring.zero()
    index = {b: k for k, b in enumerate(basis)}
    zs = [M.z_ops[j] for j in range(1, M.l + 1)]
    diag = [tuple(z.entry(b, b) or zero for z in zs) for b in basis]
    where = {}
    for r, d in enumerate(diag):
        where.setdefault(d, []).append(r)
    # zrows[j][k] = {m: z_j[k][m]}, row k of z_j
    zrows = [[{} for _ in basis] for _ in zs]
    for rows, z in zip(zrows, zs):
        for src, col in z.cols.items():
            for dst, c in col.items():
                rows[index[dst]][index[src]] = c

    weights = {}            # λ -> (r, v_λ), in the order λ is tried
    for lam in permutations(values):
        found = where.get(lam, [])
        if len(found) > 1:
            raise AlgorithmFailure("the z-weight %r sits on the diagonal "
                                   "%d times" % (lam, len(found)))
        if not found:
            # a triangular family has no joint eigenvector off its diagonal
            continue
        r = found[0]
        vec = _weight_vector(M, zrows, diag, r, lam)
        for z, x in zip(zs, lam):
            if z.apply(vec) != {b: x * y for b, y in vec.items()}:
                raise AlgorithmFailure("v_%r is not a joint z-eigenvector"
                                       % (lam,))
        weights[lam] = (r, vec)
    if len(weights) != len(basis):
        raise AlgorithmFailure("%d weight vectors do not span the "
                               "%d-dimensional module"
                               % (len(weights), len(basis)))

    edges = {r: [] for r, _ in weights.values()}
    for lam, (r, v) in weights.items():
        for i, op in M.sigma_ops.items():
            mu = lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
            rm, w = weights[mu]
            img = op.apply(v)
            br, bm = basis[r], basis[rm]
            if rm > r:
                beta = img.get(bm, zero)
                alpha = img.get(br, zero) - beta * w.get(br, zero)
            else:
                alpha = img.get(br, zero)
                beta = img.get(bm, zero) - alpha * v.get(bm, zero)
            want = {}
            for c, u in ((alpha, v), (beta, w)):
                if c:
                    for b, x in u.items():
                        want[b] = want[b] + c * x if b in want else c * x
            if img != {b: x for b, x in want.items() if x}:
                raise AlgorithmFailure("T_%d v_%r leaves the span of v_%r "
                                       "and v_%r" % (i, lam, lam, mu))
            if beta:
                edges[r].append(rm)

    def reach(r):
        seen, stack = {r}, [r]
        while stack:
            for t in edges[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    initial = ([reach(r) for r, _ in weights.values()]
               + [frozenset(), frozenset(edges)])
    members = _saturate(list(dict.fromkeys(initial)), lambda s: s,
                        lambda a, b: (a | b, a & b))
    vectors = dict(weights.values())
    return (members, frozenset.issuperset,
            lambda s: vectors[next(iter(s))])


def _line_data(M, vec):
    """Each generator's eigenvalue on the line spanned by a sparse vector,
    keyed "s1", ..., "z1", ...; it is read at the vector's first
    coordinate, so a zero eigenvalue prints as 0."""
    first = next(iter(vec))
    out = {}
    for key, op in M.generators():
        img = op.apply(vec)
        lam = img.get(first, M.ring.zero()) / vec[first]
        ok = img == ({b: lam * x for b, x in vec.items()} if lam else {})
        out["%s%d" % key] = repr(lam) if ok else "not an eigenvector"
    return out


def _composition_chain(dim, members, contains):
    """Increasing chain 0 < S_1 < ... < M through the lattice members,
    taking a minimal strictly-larger member that contains the last one
    each time; a member's len is its dimension."""
    dims = []
    last = min(members, key=len)
    while len(last) < dim:
        bigger = [s for s in members
                  if len(s) > len(last) and contains(s, last)]
        if not bigger:
            break
        last = min(bigger, key=len)
        dims.append(len(last))
    return {"subspace_dims": dims,
            "factor_dims": [b - a for a, b in zip([0] + dims, dims)]}


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
    ring = QRatRing(M1.ring.params + M2.ring.params)
    reps = _coset_reps(l1, l2)
    basis = [(b1, b2, d) for d in reps for b1 in M1.basis
             for b2 in M2.basis]
    memo = {}

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

    def operator(terms_of):
        """The operator sending (b1, b2, d) to (b1 (x) b2) T_d g, from the
        z_{j'} T_w terms of T_d g (j' is None for g = T_i)."""
        cols = {}
        for (b1, b2, d) in basis:
            col = {}
            for (jj, w, c) in terms_of(d):
                # w = (u1 x u2) d': the pure tensor absorbs z_{j'} first,
                # then the parabolic braid
                u1, u2, dp = _decompose(w, l1)
                scalar = ring.from_qscalar(c)
                if jj is None:
                    pairs = {(b1, b2): scalar}
                elif jj <= l1:
                    img = M1.z_ops[jj].apply({b1: scalar})
                    pairs = {(t, b2): x for t, x in img.items()}
                else:
                    img = M2.z_ops[jj - l1].apply({b2: scalar})
                    pairs = {(b1, t): x for t, x in img.items()}
                for (c1, c2), val in pairs.items():
                    for pair2, x in act_parabolic(c1, c2, u1, u2,
                                                  val).items():
                        key = (pair2[0], pair2[1], dp)
                        col[key] = col[key] + x if key in col else x
            cols[(b1, b2, d)] = col
        return LinOp(cols)

    sigma_ops = {i: operator(lambda d: _rmul_sigma_terms(
        [(None, d, QScalar.one())], i)) for i in range(1, n)}
    z_ops = {j: operator(lambda d: _z_expansion(d, j, memo))
             for j in range(1, n + 1)}
    return HeckeModule(n, ring, basis, sigma_ops, z_ops,
                       label="%s (x)Z %s" % (M1.label, M2.label))


def find_isomorphism(M1, M2):
    """An invertible intertwiner of right modules, or None.

    Solves the linear system f g = g f over all generators and returns
    the first invertible sum among at most 63 nonempty subsets of a
    kernel basis.  A None therefore certifies nothing: an invertible
    intertwiner may exist among the combinations not tried.
    """
    if M1.dim != M2.dim:
        return None
    field = M1.ring.field()
    dim = M1.dim
    ops2 = dict(M2.generators())
    rows = []
    for g, op in M1.generators():
        B = op_matrix(op, M1.basis, field.zero)
        A = op_matrix(ops2[g], M2.basis, field.zero)
        # (F B - A F)[r][c] = 0, unknowns F[x][y] flattened
        for r in range(dim):
            for c in range(dim):
                row = [field.zero] * (dim * dim)
                for k in range(dim):
                    row[r * dim + k] = row[r * dim + k] + B[k][c]
                    row[k * dim + c] = row[k * dim + c] - A[r][k]
                rows.append(row)
    basis = kernel_basis(rows, field)
    for combo_bits in range(1, min(1 << len(basis), 64)):
        vec = [field.zero] * (dim * dim)
        for t, b in enumerate(basis):
            if combo_bits >> t & 1:
                vec = [x + y for x, y in zip(vec, b)]
        F = [[vec[r * dim + c] for c in range(dim)] for r in range(dim)]
        if determinant(F, field):
            return F
    return None
