"""Matroids of the proposed algorithm (Sections II-E, III-B, III-C).

The proposed algorithm maximises a monotone submodular coverage function
subject to the intersection of two matroids: the partition matroid ``M1``
(each UAV deployed at most once) and the hop-counting matroid ``M2`` (node
counts per hop distance from the anchor set bounded by ``Q_h``, Eq. 1).
Fisher–Nemhauser–Wolsey greedy gives a 1/(ρ+1) = 1/3 approximation for
ρ = 2 matroids.

Only ``M2`` needs an independence oracle.  ``M1`` holds by construction:
:func:`repro.core.greedy.anchored_greedy` places exactly one UAV per
iteration, and :func:`repro.core.greedy.pair_greedy` drops a UAV once it
is used.
"""

from repro.matroid.base import Matroid
from repro.matroid.hop import HopCountingMatroid

__all__ = [
    "Matroid",
    "HopCountingMatroid",
]
