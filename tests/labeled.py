"""Labeled trees by the Prüfer bijection: the tests' independent brute force.

The oracle scans free skeleton trees; these helpers walk every labeled tree
instead, so the two can be checked against each other for small n.
"""

import heapq

from sombortree.graph import DegreeSequence, Tree


def _next_permutation(a: list[int]) -> bool:
    """Advance a to its next lexicographic permutation in place."""
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[:i:-1]
    return True


def prufer_to_tree(seq, n: int) -> Tree:
    """Standard Prüfer decode: vertex degree = occurrences + 1."""
    seq = list(seq)
    if n < 2:
        raise ValueError("need n >= 2")
    if len(seq) != n - 2:
        raise ValueError(f"sequence length {len(seq)} != n-2 = {n - 2}")
    deg = [1] * n
    for v in seq:
        if not 0 <= v < n:
            raise ValueError(f"entry {v} out of range 0..{n - 1}")
        deg[v] += 1
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(heap, v)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v))
    return Tree.from_edges(n, edges)


def enumerate_trees(d: DegreeSequence):
    """Stream every labeled tree realizing d, in lexicographic Prüfer order.

    Internal vertices are 0..m-1 (vertex i with degree d_i), leaves m..n-1.
    """
    n = d.vertex_count
    # ascending start: internal vertex i appears d_i - 1 times
    seq = [i for i, di in enumerate(d.degrees) for _ in range(di - 1)]
    while True:
        yield prufer_to_tree(seq, n)
        if not _next_permutation(seq):
            return
