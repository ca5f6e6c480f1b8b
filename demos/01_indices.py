"""Tour of the seven degree-based indices.

Every index here is a sum over edges of a symmetric function of the two
endpoint degrees, so the edge-degree partition (how many edges join a
degree-a vertex to a degree-b vertex) determines everything.
"""

import math

from degbound import (
    IndexId,
    all_indices,
    complete_graph,
    cycle_graph,
    degree_pair_counts,
    double_star,
    path_graph,
    star_graph,
)

# The partition is tiny even when the graph is not: flat (a, b, count)
# triples, one per pair of endpoint degrees that occurs.
for g, name in [(cycle_graph(12), "C_12"), (star_graph(8), "S_{1,8}"),
                (double_star(), "T*")]:
    print(f"{name}: edge-degree partition {degree_pair_counts(g)}")
print()

# All seven indices of the complete graph K_5.
k5 = complete_graph(5)
for idx, value in all_indices(k5).items():
    print(f"  {idx!s:4s} (K_5) = {value:.6f}")
print()

# AZI is undefined when an edge joins two degree-1 vertices: the only
# connected case is the single edge K_2.
p2 = path_graph(2)
print("AZI on K_2:", all_indices(p2)[IndexId.AZI], "(marked undefined)")
print()

# Two famous molecular-graph exceptions: the star with four leaves and the
# double star T* are the only connected molecular graphs with ABC >= GA.
for g, name in [(star_graph(4), "K_{1,4}"), (double_star(), "T*")]:
    vals = all_indices(g)
    ga, abc = vals[IndexId.GA], vals[IndexId.ABC]
    print(f"{name}: GA = {ga:.6f} < ABC = {abc:.6f}")

# For T* the exact values are GA = 29/5 and ABC = 3*sqrt(3) + sqrt(6)/4.
expected = 3 * math.sqrt(3) + math.sqrt(6) / 4
print("T* ABC closed form check:",
      abs(all_indices(double_star())[IndexId.ABC] - expected) < 1e-12)
