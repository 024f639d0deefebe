"""Seeded input generators and the independent oracle.

Every generator is vectorised and draws only from the ``numpy`` generator
it is handed, so one seed gives the same files.  The oracle never imports
the package under test: it builds the gauge partner Laplacian itself from
the edge arrays and reads the verdict off ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

POLARIZING = "AsymmetricPolarization"
DIVERGENCE = "Divergence"
INCONCLUSIVE = "Inconclusive"

# Verdicts closer than these shares of the spectral radius to the
# PSD/simple-zero boundary are redrawn, so float noise cannot flip them.
ZERO_MARGIN = 1e-10
GAP_MARGIN = 1e-4


@dataclass
class Network:
    """Edge arrays in file order plus the side-one mask they were built with."""

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    side1: np.ndarray
    dominant: int


def _tree(rng, nodes: np.ndarray) -> np.ndarray:
    # Random recursive tree: each node joins a uniformly chosen earlier one,
    # so depth stays logarithmic and the bloc is cooperatively connected.
    order = rng.permutation(nodes)
    k = np.arange(1, order.size)
    parents = order[(rng.random(k.size) * k).astype(np.int64)]
    return np.stack([order[1:], parents], axis=1)


def _pairs(rng, a: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    p = np.stack([rng.choice(a, count), rng.choice(b, count)], axis=1)
    return p[p[:, 0] != p[:, 1]]


def _assemble(rng, n: int, groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge ``(pairs, weights)`` groups; an earlier group wins a node pair.
    The surviving edges come back in shuffled file order."""
    pairs = np.concatenate([p for p, _ in groups])
    weights = np.concatenate([w for _, w in groups])
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    _, first = np.unique(lo * n + hi, return_index=True)
    keep = rng.permutation(first)
    return lo[keep], hi[keep], weights[keep]


def _weights(rng, count: int, low: float, high: float, sign: float) -> np.ndarray:
    return sign * np.round(rng.uniform(low, high, count), 3)


def two_bloc(rng, n: int, kind: str = POLARIZING) -> Network:
    """Two cooperative blocs with antagonism inside and across them.

    Weights follow the bundled dataset's shape: strong cooperation, weak
    same-bloc antagonism, strong cross-bloc antagonism.  ``Divergence``
    adds one feud inside a bloc heavy enough to make the partner Laplacian
    indefinite; ``Inconclusive`` cuts a small cooperative island loose so
    the network is disconnected.
    """
    island = max(3, n // 20) if kind == INCONCLUSIVE else 0
    main = n - island
    labels = rng.permutation(n)
    r = int(main * 0.4)
    v1, v2, isl = labels[:r], labels[r:main], labels[main:]
    groups = []
    for bloc in (v1, v2):
        tree = _tree(rng, bloc)
        groups.append((tree, _weights(rng, len(tree), 5.0, 15.0, 1.0)))
        extra = _pairs(rng, bloc, bloc, bloc.size)
        groups.append((extra, _weights(rng, len(extra), 5.0, 15.0, 1.0)))
    if island:
        tree = _tree(rng, isl)
        groups.append((tree, _weights(rng, len(tree), 5.0, 15.0, 1.0)))
    if kind == DIVERGENCE:
        feud = np.array([[v2[0], v2[1]]])
        groups.insert(0, (feud, np.array([-2000.0])))
    for bloc in (v1, v2):
        neg = _pairs(rng, bloc, bloc, bloc.size // 2)
        groups.append((neg, _weights(rng, len(neg), 0.2, 0.8, -1.0)))
    cross = _pairs(rng, v1, v2, int(1.5 * main))
    groups.append((cross, _weights(rng, len(cross), 5.0, 15.0, -1.0)))
    i, j, w = _assemble(rng, n, groups)
    side1 = np.zeros(n, dtype=bool)
    side1[v1] = True
    return Network(n, i, j, w, side1, int(v1[0]))


def blocs(rng, n: int, m: int, p: int) -> Network:
    """Sparse network of ``p`` cooperative blocs of near-equal size.

    Every cross-bloc tie is antagonistic and each bloc is spanned by a
    cooperative tree, so the cooperative components are exactly the blocs.
    """
    labels = rng.permutation(n)
    bloc_of = np.empty(n, dtype=np.int64)
    bloc_of[labels] = np.arange(n) * p // n
    groups = []
    for k in range(p):
        tree = _tree(rng, labels[np.arange(n) * p // n == k])
        groups.append((tree, _weights(rng, len(tree), 1.0, 9.0, 1.0)))
    extra = m - (n - p)
    pairs = np.stack([rng.integers(0, n, extra), rng.integers(0, n, extra)], axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    same = bloc_of[pairs[:, 0]] == bloc_of[pairs[:, 1]]
    sign = np.where(same & (rng.random(len(pairs)) < 0.5), 1.0, -1.0)
    groups.append((pairs, sign * np.round(rng.uniform(1.0, 9.0, len(pairs)), 3)))
    i, j, w = _assemble(rng, n, groups)
    return Network(n, i, j, w, np.zeros(n, dtype=bool), int(labels[0]))


def highland(path: Path, weights=(10.0, -1.0, -10.0), dominant: int = 0) -> Network:
    """The bundled dataset with the scenario relabelling applied, parsed
    here so the oracle does not depend on the package's parser."""
    rows = [line.split("#", 1)[0].split() for line in path.read_text().splitlines()]
    rows = [r for r in rows if r]
    n = int(rows[0][0])
    e = np.array([[int(a), int(b), float(c)] for a, b, c in rows[1:]])
    i, j, w = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]
    side1 = cooperative_labels(n, i, j, w)
    side1 = side1 == side1[dominant]
    same = side1[i] == side1[j]
    coop, intra, inter = weights
    w = np.where(w > 0, coop, np.where(same, intra, inter))
    return Network(n, i, j, w, side1, dominant)


def write(net: Network, path: Path) -> None:
    """Write the package's edge-list format: ``n m`` then ``i j w`` lines."""
    with open(path, "w") as fh:
        fh.write(f"{net.n} {net.i.size}\n")
        np.savetxt(fh, np.column_stack([net.i, net.j, net.w]), fmt=["%d", "%d", "%.3f"])


def _components(n: int, i, j) -> tuple[int, np.ndarray]:
    # scipy loads here, so the worker processes that import this module for
    # their checks do not pay for it during set-up
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    return connected_components(coo_matrix((np.ones(i.size), (i, j)), shape=(n, n)),
                                directed=False)


def cooperative_labels(n: int, i, j, w) -> np.ndarray:
    """Component label per node of the cooperative subgraph."""
    pos = w > 0
    return _components(n, i[pos], j[pos])[1]


def dense_adjacency(net: Network) -> np.ndarray:
    a = np.zeros((net.n, net.n))
    a[net.i, net.j] = net.w
    a[net.j, net.i] = net.w
    return a


def partner_laplacian(net: Network) -> np.ndarray:
    """Laplacian of the gauge partner: cross-side weights flip sign."""
    sign = np.where(net.side1, -1.0, 1.0)
    az = sign[:, None] * dense_adjacency(net) * sign[None, :]
    return np.diag(az.sum(axis=1)) - az


def flow_laplacian(net: Network, gamma: float) -> np.ndarray:
    """The dominance-scaled flow matrix ``D - S A S^-1`` of the paper."""
    a = dense_adjacency(net)
    sign = np.where(net.side1, -1.0, 1.0)
    scale = np.where(net.side1, gamma, 1.0)
    deg = (sign[:, None] * a * sign[None, :]).sum(axis=1)
    return np.diag(deg) - scale[:, None] * a / scale[None, :]


def verdict(net: Network) -> tuple[str | None, float]:
    """Expected certificate verdict for any coefficient above 1, with the
    partner Laplacian's spectral radius.  The verdict is None when the
    spectrum lies within the margin of the decision boundary."""
    lam = np.linalg.eigvalsh(partner_laplacian(net))
    radius = float(np.max(np.abs(lam)))
    if _components(net.n, net.i, net.j)[0] > 1:
        return INCONCLUSIVE, radius
    if lam[0] < -GAP_MARGIN * radius:
        return DIVERGENCE, radius
    if abs(lam[0]) <= ZERO_MARGIN * radius and lam[1] > GAP_MARGIN * radius:
        return POLARIZING, radius
    return None, radius


def draw_two_bloc(rng, n: int, kind: str) -> tuple[Network, float]:
    """A two-bloc network whose oracle verdict is ``kind``, redrawn until
    it clears the boundary margins, with its spectral radius."""
    for _ in range(20):
        net = two_bloc(rng, n, kind)
        got, radius = verdict(net)
        if got == kind:
            return net, radius
    raise RuntimeError(f"no {kind} network of size {n} clear of the boundary in 20 draws")
