"""Walks over the support of a family of n x n matrices X over GF(p).

The support is read as a graph on 0 .. n-1 with an edge j -> i for each
nonzero entry [i, j] of some matrix.  kemod uses the walks on a
module's actions: is_acyclic decides whether layered_actions needs a
change of basis, and find_grading gives multigrading its weights.
"""

import numpy as np


def is_acyclic(X, n):
    """Whether the nonzeros of the n x n matrices X, as edges j -> i for
    each entry [i, j], form a DAG: then some permutation makes every matrix
    strictly triangular.  One topological sort, O(n + nonzeros) steps."""
    # the transposed support lists the edges by source
    sources, targets = np.any(np.array(X, dtype=bool), axis=0).T.nonzero()
    starts = np.searchsorted(sources, np.arange(n + 1)).tolist()
    indegree = np.bincount(targets, minlength=n).tolist()
    targets = targets.tolist()
    ready = [v for v in range(n) if indegree[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in targets[starts[v] : starts[v + 1]]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return done == n


def find_grading(X, n, r):
    """Weights w: 0 .. n-1 -> Z^r with w(t) = w(s) + e_i for every nonzero
    entry [t, s] of X[i], as a read-only (n, r) int64 array, or None when
    there are none.

    One breadth-first walk over the support, a level at a time: each
    unvisited index starts a connected component at weight 0, and each
    index s of a level fixes the weights of its neighbours, w(s) + e_i
    along column s of X[i] and w(s) - e_i along row s.  The walk stops at
    the first level that gives some index two weights, so a dense family
    costs about one index's scan: its column and row of each matrix.
    """
    steps = np.eye(r, dtype=np.int64)
    w = np.zeros((n, r), dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        frontier = np.array([root])
        while frontier.size:
            # the neighbours t of the frontier's vectors s: (X_i)[t, s] != 0
            # puts w(t) at w(s) + e_i, and (X_i)[s, t] != 0 at w(s) - e_i
            ends, wants = [], []
            for A, step in zip(X, steps):
                t, k = A[:, frontier].nonzero()
                ends.append(t)
                wants.append(w[frontier[k]] + step)
                k, t = A[frontier].nonzero()
                ends.append(t)
                wants.append(w[frontier[k]] - step)
            t, want = np.concatenate(ends), np.concatenate(wants)
            new = ~seen[t]
            # a vector reached twice gets one of its weights here and fails
            # the comparison with the other
            w[t[new]] = want[new]
            if not np.array_equal(w[t], want):
                return None
            frontier = np.bincount(t[new], minlength=n).nonzero()[0]
            seen[frontier] = True
    w.setflags(write=False)
    return w
