"""Fixtures and oracles shared by the test modules.

``finite_type_a`` and ``finite_type_d4`` build Cartan matrices of finite
type that no preset offers: a path and the star D_4.  ``r_shift`` rotates
the nodes of a monomial or character round the cycle, the symmetry the
rotation tests compare expansions under.  ``char_from_json`` reads back
the JSON form that ``qchar.char_to_json`` and the command line write.
"""

from qtoroidal.cartan import build_cartan
from qtoroidal.errors import DomainError, InputError
from qtoroidal.monomials import YMonomial, mono_parse
from qtoroidal.qchar import QCharacter


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


def _cycle_length(C):
    n = C.cycle_len
    if n is None:
        raise DomainError("node rotation needs a cyclic type-A matrix")
    return n


def r_shift(x, steps, cartan=None):
    """Rotate node indices of a monomial or character around the cycle."""
    if isinstance(x, YMonomial):
        if cartan is None:
            raise InputError("rotating a bare monomial needs the matrix")
        return x.shift_nodes(steps, _cycle_length(cartan))
    n = _cycle_length(x.cartan)
    terms = {m.shift_nodes(steps, n): c for m, c in x.terms.items()}
    heights = {m.shift_nodes(steps, n): h for m, h in x.heights.items()}
    return QCharacter(x.cartan, x.top.shift_nodes(steps, n), x.depth,
                      terms, heights)


def char_from_json(obj, cartan=None):
    terms = {}
    heights = {}
    for t in obj["terms"]:
        m = mono_parse(t["monomial"])
        terms[m] = t["coeff"]
        heights[m] = t["height"]
    return QCharacter(cartan, mono_parse(obj["top"]), obj["depth"],
                      terms, heights)
