"""Generalized Cartan matrices, symmetrizers, classification and the node
combinatorics feeding the character engine."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConstructionError, DomainError, InputError, ParseError
from .linalg import Field, determinant
from .scalars import QScalar


class CartanData:
    """A symmetrizable generalized Cartan matrix with its minimal symmetrizer.

    Two flavours exist: a finite node set with explicit entries, and the
    doubly infinite type-A line (``infinite=True``) whose entries follow the
    tridiagonal 2/-1 pattern and never need materializing.
    """

    def __init__(self, nodes, entries, r, type_tag, *, infinite=False,
                 cycle_len=None, name=None):
        self.infinite = infinite
        self.nodes = None if infinite else tuple(nodes)
        self._entries = entries
        self._r = r
        self.type_tag = type_tag
        self.cycle_len = cycle_len
        self.name = name

    # -- raw structure --------------------------------------------------

    def C(self, i, j):
        if self.infinite:
            if i == j:
                return 2
            return -1 if abs(i - j) == 1 else 0
        try:
            return self._entries[(i, j)]
        except KeyError:
            raise self._no_node(i if i not in self._r else j) from None

    def r(self, i):
        if self.infinite:
            return 1
        try:
            return self._r[i]
        except KeyError:
            raise self._no_node(i) from None

    def _no_node(self, i):
        return InputError("node %r is not one of the nodes %s"
                          % (i, ", ".join(map(repr, self.nodes))))

    def neighbors(self, i):
        if self.infinite:
            return (i - 1, i + 1)
        return tuple(j for j in self.nodes if j != i and self.C(i, j) < 0)

    def is_simply_laced(self):
        if self.infinite:
            return True
        return all(self.C(i, j) in (0, -1)
                   for i in self.nodes for j in self.nodes if i != j)

    def symmetrized(self, i, j):
        """Entry B_ij = r_i C_ij of the symmetrized matrix."""
        return self.r(i) * self.C(i, j)

    def __repr__(self):
        if self.infinite:
            return "CartanData(A_inf)"
        return "CartanData(%s, %d nodes)" % (self.type_tag,
                                             len(self.nodes))


def _leading_minors(rows):
    """Exact leading principal minors of an integer matrix."""
    field = Field(Fraction(0), Fraction(1))
    return [determinant([row[:m] for row in rows[:m]], field)
            for m in range(1, len(rows) + 1)]


def _minimal_symmetrizer(nodes, C):
    """Minimal positive integers r_i with r_i C_ij = r_j C_ji.

    Propagates ratios along edges of each connected component, then clears
    denominators and divides by the component gcd.
    """
    r = {}
    for start in nodes:
        if start in r:
            continue
        ratio = {start: Fraction(1)}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j == i or C(i, j) == 0:
                    continue
                want = ratio[i] * Fraction(C(i, j), C(j, i))
                if j in ratio:
                    if ratio[j] != want:
                        raise ConstructionError("matrix is not symmetrizable")
                else:
                    ratio[j] = want
                    stack.append(j)
        denom = math.lcm(*(x.denominator for x in ratio.values()))
        vals = {j: int(x * denom) for j, x in ratio.items()}
        g = math.gcd(*vals.values())
        r.update((j, v // g) for j, v in vals.items())
    return r


def build_cartan(entries, labels=None, *, a1_convention=False, name=None,
                 cycle_len=None):
    """Validate a generalized Cartan matrix and classify it.

    ``entries`` is a list of integer rows.  Classification follows the
    leading-principal-minor signs: finite when all are positive, affine when
    the first n-1 are positive and the determinant vanishes.
    """
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise ConstructionError("entries must form a square matrix")
    if labels is None:
        labels = list(range(n))
    if len(labels) != n:
        raise ConstructionError("label count does not match matrix size")
    idx = {lab: k for k, lab in enumerate(labels)}
    for i in labels:
        for j in labels:
            v = entries[idx[i]][idx[j]]
            if not isinstance(v, int):
                raise ConstructionError("entries must be integers")
            if i == j and v != 2:
                raise ConstructionError("diagonal entries must equal 2")
            if i != j and v > 0:
                raise ConstructionError("off-diagonal entries must be <= 0")
            if i != j and (v == 0) != (entries[idx[j]][idx[i]] == 0):
                raise ConstructionError("zero pattern must be symmetric")

    def C(i, j):
        return entries[idx[i]][idx[j]]

    r = _minimal_symmetrizer(labels, C)
    for i in labels:
        for j in labels:
            if r[i] * C(i, j) != r[j] * C(j, i):
                raise ConstructionError("matrix is not symmetrizable")

    minors = _leading_minors(entries)
    if all(m > 0 for m in minors):
        type_tag = "Finite"
    elif all(m > 0 for m in minors[:-1]) and minors[-1] == 0:
        type_tag = "Affine"
    else:
        type_tag = "Indefinite"

    if a1_convention:
        if n != 2 or C(labels[0], labels[1]) != -2 \
                or C(labels[1], labels[0]) != -2:
            raise ConstructionError("the r=2 convention applies only to the "
                                    "rank-2 matrix with off-diagonal -2")
        r = {i: 2 for i in labels}

    ent = {(i, j): C(i, j) for i in labels for j in labels}
    return CartanData(labels, ent, r, type_tag, cycle_len=cycle_len,
                      name=name)


def infinite_a():
    """The doubly infinite type-A line with entries 2 on the diagonal and
    -1 between consecutive integers."""
    return CartanData(None, None, None, "InfiniteA", infinite=True,
                      name="Ainf")


def cyclic_a(m, name=None):
    """The cycle on m >= 3 nodes labeled 0..m-1 (affine type A_{m-1}^(1))."""
    if m < 3:
        raise InputError("cyclic type A needs at least 3 nodes")
    rows = [[2 if i == j else (-1 if (i - j) % m in (1, m - 1) else 0)
             for j in range(m)] for i in range(m)]
    return build_cartan(rows, list(range(m)), cycle_len=m,
                        name=name or "A%dcycle" % (m - 1))


def finite_type_a(n):
    """Path on nodes 1..n (finite type A_n)."""
    rows = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]
    return build_cartan(rows, list(range(1, n + 1)), name="A%d" % n)


def finite_type_d4():
    """Type D_4: center node 2 joined to 1, 3, 4."""
    labels = [1, 2, 3, 4]
    edges = {(1, 2), (2, 1), (3, 2), (2, 3), (4, 2), (2, 4)}
    rows = [[2 if a == b else (-1 if (a, b) in edges else 0)
             for b in labels] for a in labels]
    return build_cartan(rows, labels, name="D4")


def b_np(n, p):
    """The deformed chain B_{n,p} on nodes 1..n; the last edge carries the
    entry -p from node n toward node n-1."""
    if n < 2 or p < 1:
        raise InputError("B_{n,p} requires n >= 2 and p >= 1")
    labels = list(range(1, n + 1))
    rows = []
    for i in labels:
        row = []
        for j in labels:
            v = 2 if i == j else 0
            if j == i + 1 or j == i - 1:
                v = -1
            if i == n and j == n - 1:
                v = -1 - (p - 1)
            row.append(v)
        rows.append(row)
    return build_cartan(rows, labels, name="B%d_%d" % (n, p))


def cartan_preset(name):
    """Named presets: A3tor, A1tor, Ainf, Bnp:n,p."""
    if name == "A3tor":
        return cyclic_a(4, name="A3tor")
    if name == "A1tor":
        rows = [[2, -2], [-2, 2]]
        return build_cartan(rows, [0, 1], a1_convention=True, name="A1tor")
    if name == "Ainf":
        return infinite_a()
    if name.startswith("Bnp:"):
        try:
            n, p = (int(x) for x in name[4:].split(","))
        except ValueError:
            raise InputError("malformed preset %r" % name)
        return b_np(n, p)
    raise InputError("unknown preset %r" % name)


def parse_matrix_text(text):
    """Whitespace-separated integer rows, one row per line (or ';'); a
    token that is not an integer raises ParseError naming it."""
    rows = []
    for line in text.replace(";", "\n").splitlines():
        row = []
        for tok in line.split():
            try:
                row.append(int(tok))
            except ValueError:
                raise ParseError("matrix entry %r is not an integer"
                                 % tok) from None
        if row:
            rows.append(row)
    return build_cartan(rows)


def quantized_cartan_condition(C):
    """True iff C_ij < -1 implies -C_ji <= r_i for every pair.

    This is the sufficient condition for the invertibility of the quantized
    Cartan matrix that gates the character engine.
    """
    if C.infinite:
        return True
    for i in C.nodes:
        for j in C.nodes:
            if i != j and C.C(i, j) < -1 and -C.C(j, i) > C.r(i):
                return False
    return True


class NodeGeometry:
    """Extremal/special status of one node, with the distance d_i to the
    nearest special node (math.inf when none exists)."""

    def __init__(self, node, extremal, special, d, simply_laced):
        self.node = node
        self.extremal = extremal
        self.special = special
        self.d = d
        self._simply_laced = simply_laced

    def small_bound(self, k):
        if not self._simply_laced:
            raise DomainError("the smallness criterion assumes a "
                              "simply-laced matrix")
        return k <= 2 or (self.extremal and k <= self.d + 1)

    def __repr__(self):
        return ("NodeGeometry(%r, extremal=%s, special=%s, d=%s)"
                % (self.node, self.extremal, self.special, self.d))


def node_geometry_at(C, i):
    """The geometry of node i; a node not in C raises InputError, and the
    infinite line takes any node."""
    C.r(i)      # an unknown node is the InputError of every node lookup
    if C.infinite:
        # two neighbors everywhere, never a special node on the line
        return NodeGeometry(i, False, False, math.inf, True)
    sl = C.is_simply_laced()
    nbrs = {j: C.neighbors(j) for j in C.nodes}
    special = {j for j in C.nodes if len(nbrs[j]) >= 3}
    extremal = len(nbrs[i]) == 1
    # breadth-first search for the nearest special node, counting nodes
    d = math.inf
    frontier = [i]
    seen = {i}
    depth = 1
    while frontier:
        if any(x in special for x in frontier):
            d = depth
            break
        nxt = []
        for x in frontier:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        depth += 1
    return NodeGeometry(i, extremal, i in special, d, sl)


def node_geometry(C, nodes=None):
    """Per-node geometry records; pass explicit nodes for the infinite line."""
    if nodes is None:
        if C.infinite:
            raise InputError("explicit nodes are required for the infinite "
                             "line")
        nodes = C.nodes
    return {i: node_geometry_at(C, i) for i in nodes}


class WeightVector:
    """Integral weight in pairing coordinates lambda_i = lambda(alpha_i^vee),
    with optional simple-root multiplicities carried alongside."""

    __slots__ = ("coords", "alpha_coords")

    def __init__(self, coords=None, alpha_coords=None):
        self.coords = {k: int(v) for k, v in (coords or {}).items() if v}
        self.alpha_coords = {k: int(v)
                             for k, v in (alpha_coords or {}).items() if v}

    @classmethod
    def fundamental(cls, i):
        return cls({i: 1})

    @classmethod
    def simple_root(cls, C, i):
        if C.infinite:
            coords = {i - 1: -1, i: 2, i + 1: -1}
        else:
            coords = {j: C.C(j, i) for j in C.nodes if C.C(j, i)}
        return cls(coords, {i: 1})

    def pairing(self, i):
        return self.coords.get(i, 0)

    def is_dominant(self):
        return all(v >= 0 for v in self.coords.values())

    def __add__(self, other):
        c = dict(self.coords)
        for k, v in other.coords.items():
            c[k] = c.get(k, 0) + v
        a = dict(self.alpha_coords)
        for k, v in other.alpha_coords.items():
            a[k] = a.get(k, 0) + v
        return WeightVector(c, a)

    def __neg__(self):
        return WeightVector({k: -v for k, v in self.coords.items()},
                            {k: -v for k, v in self.alpha_coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return WeightVector({k: c * v for k, v in self.coords.items()},
                            {k: c * v for k, v in self.alpha_coords.items()})

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        return (self.coords == other.coords
                and self.alpha_coords == other.alpha_coords)

    def __hash__(self):
        return hash((frozenset(self.coords.items()),
                     frozenset(self.alpha_coords.items())))

    def __repr__(self):
        return "WeightVector(%r)" % (self.coords,)


def minimal_affinization_check(C, lam, a_exps):
    """Spectral-alignment test for the chain C = B_{n,p}.

    ``lam`` maps node -> lambda_i; ``a_exps`` lists the spectral exponents
    a_i per node 1..n (ints, or pure q-power QScalars).  True iff every
    ratio a_j/a_i matches the product of the alignment coefficients
    c_s = q^(r_s l_s + r_{s+1} l_{s+1} + r_s - C_{s,s+1} - 1) for i <= s < j.
    """
    nodes = list(C.nodes)
    exps = []
    for a in a_exps:
        if isinstance(a, QScalar):
            e = a.as_q_power()
            if e is None:
                raise DomainError("spectral parameter is not a power of q")
            exps.append(e)
        elif isinstance(a, int):
            exps.append(a)
        else:
            raise DomainError("spectral parameter must be an integer "
                              "exponent or a q-power")
    if len(exps) != len(nodes):
        raise InputError("one spectral parameter per node is required")

    def c_exp(s_pos):
        s, t = nodes[s_pos], nodes[s_pos + 1]
        ls, lt = lam.get(s, 0), lam.get(t, 0)
        return C.r(s) * ls + C.r(t) * lt + C.r(s) - C.C(s, t) - 1

    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            want = sum(c_exp(s) for s in range(i, j))
            if exps[j] - exps[i] != want:
                return False
    return True
