"""Exact symbolic toolkit for toroidal q-character combinatorics.

Modules: scalars (exact arithmetic), cartan, monomials, qchar, tableaux,
crystal, modrep, fusion, hecke, cli.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
