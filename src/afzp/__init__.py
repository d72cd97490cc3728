"""Exact classification toolkit for order-p actions on finite-dimensional
C*-algebras: invariants, crossed products, lifting, uniqueness and
intertwining certificates, all over Q(zeta_N)."""

__version__ = "0.1.0"

FORMAT_VERSION = 3
