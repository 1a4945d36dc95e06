#!/usr/bin/env python3
"""Trace the construction for the degree sequence (5,5,5,4,3,3,2,2)."""

from sombortree.graph import sombor_index, validate
from sombortree.construct import (
    attachment_site,
    construct_max_tree,
    decompose,
    materialize,
    merge_once,
)
from sombortree.verify import check_theorem1, is_local_max

d = validate([5, 5, 5, 4, 3, 3, 2, 2])
print(f"degree sequence: {d}   m={d.m} leaves={d.leaf_count} n={d.vertex_count}")

specs = decompose(d)
for i, spec in enumerate(specs, 1):
    print(f"  T{i}: {spec.kind} root_degree={spec.root_degree} "
          f"children={spec.child_degrees} fillers={spec.filler_leaves}")

t = materialize(specs[-1])
print(f"base: n={t.n}  SO={sombor_index(t):.6f}")
for spec in reversed(specs[:-1]):
    leaf = attachment_site(t)
    anchor = t.adj[leaf][0]
    t = merge_once(t, materialize(spec))
    print(f"merge chain(root {spec.root_degree}) at leaf {leaf} "
          f"(neighbor degree {t.degree(anchor)}): n={t.n}  SO={sombor_index(t):.6f}")

final = construct_max_tree(d)
print(f"final: n={final.n} leaves={len(final.leaves())} "
      f"SO={sombor_index(final):.12f}")
print(f"2-swap local max: {is_local_max(final).is_local_max}")
report = check_theorem1(final)
print(f"path inequalities: {report.checked} checked on {report.paths} paths, "
      f"{report.violations} flagged (ties in SO make some maximizers violate them)")
