"""Property-based verification of the matroid axioms (Section II-E) for
the hop-counting matroid ``M2``: (i) the empty set is independent,
(ii) hereditary, (iii) augmentation.

These are exactly the properties the paper's 1/3-approximation relies on;
the paper omits the proofs, so we check them exhaustively on random
instances instead.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import q_bounds
from repro.matroid.hop import HopCountingMatroid


def check_axioms_exhaustive(matroid, max_ground: int = 9) -> None:
    """Verify all three axioms by enumeration over a small ground set."""
    ground = sorted(matroid.ground_set())
    assert len(ground) <= max_ground, "instance too large for exhaustion"
    assert matroid.is_independent(set()), "axiom (i): empty set"

    independents = []
    for r in range(len(ground) + 1):
        for subset in combinations(ground, r):
            if matroid.is_independent(set(subset)):
                independents.append(frozenset(subset))

    independent_set = set(independents)
    # (ii) hereditary: every subset of an independent set is independent.
    for b in independents:
        for e in b:
            assert frozenset(b - {e}) in independent_set, (
                f"hereditary violated: {set(b)} independent but "
                f"{set(b - {e})} is not"
            )
    # (iii) augmentation.
    for a in independents:
        for b in independents:
            if len(a) > len(b):
                assert any(
                    frozenset(b | {e}) in independent_set for e in a - b
                ), f"augmentation violated for A={set(a)}, B={set(b)}"


def random_hop_matroid(seed: int) -> HopCountingMatroid:
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 10))
    hmax = int(rng.integers(0, 4))
    hops = [int(h) for h in rng.integers(0, hmax + 2, size=size)]
    q = []
    prev = int(rng.integers(0, size + 2))
    for _ in range(hmax + 1):
        q.append(prev)
        prev = int(rng.integers(0, prev + 1))
    return HopCountingMatroid(hops, q)


class TestHopMatroidAxioms:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_instances(self, seed):
        check_axioms_exhaustive(random_hop_matroid(seed))

    def test_paper_shaped_instance(self):
        # Eq. 1 bounds for L = 8, p = (1, 2, 2): a realistic M2.
        hops = [0, 0, 1, 1, 1, 2, 1, 1]
        m = HopCountingMatroid(hops, q_bounds(8, [1, 2, 2]))
        check_axioms_exhaustive(m)
