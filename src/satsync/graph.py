"""Weighted digraphs, Laplacians, root-set reachability and spectral checks.

Edges follow the adjacency convention a_ij > 0 for an edge j → i (agent i
listens to agent j).  The root set collects the agents that measure their
own output relative to the reference generator; its indicator enters the
expanded Laplacian L̃ = L + diag(ι).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# Structural zero eigenvalues of unrooted components are distinguished from
# round-off at this threshold.
SPECTRUM_TOL = 1e-9


class NetworkError(ValueError):
    pass


@dataclass(frozen=True)
class Network:
    """Weighted digraph on N agents with a (possibly empty) root set.

    root_set holds 0-based agent indices, each an int or a numpy integer;
    a bool, a float or a string is refused, not read as an index.
    """

    adjacency: np.ndarray
    root_set: frozenset[int]

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=float)  # a copy: frozen below
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise NetworkError(f"adjacency must be square, got {adj.shape}")
        if not np.all(np.isfinite(adj)):
            raise NetworkError("adjacency contains non-finite entries")
        if np.any(adj < 0):
            raise NetworkError("adjacency weights must be nonnegative")
        if np.any(np.diag(adj) != 0):
            bad = int(np.nonzero(np.diag(adj))[0][0])
            raise NetworkError(f"self-loop at node {bad} (a_ii must be 0)")
        if not all(np.issubdtype(type(i), np.integer) for i in self.root_set):
            raise NetworkError("root_set must hold integer agent indices")
        roots = frozenset(int(i) for i in self.root_set)
        if any(i < 0 or i >= adj.shape[0] for i in roots):
            raise NetworkError("root_set indices out of range")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "root_set", roots)

    @property
    def N(self) -> int:
        return self.adjacency.shape[0]

    @property
    def indicator(self) -> np.ndarray:
        """ι ∈ {0,1}^N marking root-set membership."""
        iota = np.zeros(self.N)
        iota[sorted(self.root_set)] = 1.0
        return iota


@dataclass(frozen=True)
class ExpandedLaplacian:
    """L̃ = L + diag(ι) and its spectrum."""

    matrix: np.ndarray
    spectrum: np.ndarray

    @property
    def positive_real_parts(self) -> bool:
        return bool(self.spectrum.real.min() > SPECTRUM_TOL)


def laplacian(net: Network) -> np.ndarray:
    """Graph Laplacian: ℓ_ii = Σ_k a_ik, ℓ_ij = -a_ij; rows sum to zero."""
    adj = net.adjacency
    return np.diag(adj.sum(axis=1)) - adj


def expanded_laplacian(net: Network) -> ExpandedLaplacian:
    L = laplacian(net) + np.diag(net.indicator)
    return ExpandedLaplacian(matrix=L, spectrum=np.linalg.eigvals(L))


def in_rooted_family(net: Network) -> bool:
    """True iff every node is reachable from the root set along edges j → i.

    An empty root set fails (there is nothing to regulate against).
    """
    if not net.root_set:
        return False
    adj = net.adjacency
    seen = set(net.root_set)
    queue = deque(net.root_set)
    while queue:
        j = queue.popleft()
        for i in np.nonzero(adj[:, j] > 0)[0]:
            i = int(i)
            if i not in seen:
                seen.add(i)
                queue.append(i)
    return len(seen) == net.N


def target_dynamics_stable(net: Network, model) -> bool:
    """Stability of the stacked error dynamics I⊗A - L̃⊗I.

    Its spectrum is {μ - λ : μ ∈ eig(A), λ ∈ eig(L̃)}, so the test reduces
    to max Re μ - min Re λ < 0.
    """
    mu = np.linalg.eigvals(model.A)
    lam = expanded_laplacian(net).spectrum
    return float(mu.real.max() - lam.real.min()) < -SPECTRUM_TOL


def random_rooted_network(rng: np.random.Generator, N: int) -> Network:
    """Random digraph guaranteed to have every node reachable from the root.

    A spanning arborescence from a random root is sampled first, then random
    extra edges with weights in [0.1, 2] are added.
    """
    root = int(rng.integers(N))
    adj = np.zeros((N, N))
    placed = [root]
    remaining = [i for i in range(N) if i != root]
    rng.shuffle(remaining)
    for i in remaining:
        parent = placed[int(rng.integers(len(placed)))]
        adj[i, parent] = rng.uniform(0.1, 2.0)
        placed.append(i)
    for _ in range(int(rng.integers(0, N + 1))):
        i, j = rng.integers(N, size=2)
        if i != j:
            adj[i, j] = rng.uniform(0.1, 2.0)
    return Network(adjacency=adj, root_set=frozenset([root]))
