"""
Tour 5: the orbit/face dictionary, face transport, and fiber data.

Orbits of an embedding biject with the nonempty faces of its moment
polytope; walls of the dominant cone that contain a face enlarge its
parabolic.  Transporting faces along morphisms (or collapsing them) tracks
orbit images, and the contraction chain carries exact fiber dimensions.
"""

from fractions import Fraction as F

from horokit import classify as cl, divisor as dv, normalform as nform, quadruple as qd
from horokit.horo import HomSpaceData
from horokit.polyhedra import InequalitySystem, gstable_tag
from horokit.quadruple import AdmissibleQuadruple
from horokit.rootdata import (GroupProduct, Root, SL, TORUS_FACTOR,
                              TRIVIAL_FACTOR, flag_dimension)

print("== two rank-one segments over the full flag variety of SL3 ==")
G = GroupProduct((SL(3),))
w2 = G.fundamental_weight(Root(0, 2))
hs = HomSpaceData(G, frozenset({Root(0, 1), Root(0, 2)}), (w2,))
tags = (gstable_tag("bottom"), gstable_tag("top"))
segment = InequalitySystem(((1,), (-1,)), (0, -2), tags)
q_x = AdmissibleQuadruple(hs, segment, (F(2), F(2)))
q_xp = AdmissibleQuadruple(hs, segment, (F(2), F(0)))

for name, q in (("interior segment", q_x), ("wall-touching segment", q_xp)):
    print(f"-- {name}: admissible = {qd.is_admissible(q)[0]}")
    for face, info in qd.orbit_poset(q):
        print(f"   face rows {sorted(face.active_rows)}: orbit dim {info.dim},"
              f" walls {sorted(str(w) for w in info.walls)}")

print("\nface transport first -> second:",
      {i: sorted(qd.map_face(q_x, q_xp, {i})) for i in (0, 1)})
print("reverse transport of the wall vertex:", qd.map_face(q_xp, q_x, {0}))

print("\n== fiber dimension tables ==")
spec = cl.X1Spec(GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2))),
                 Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))
print("spec dim:", spec.dim())
for locus in nform.exceptional_loci(spec):
    print(f"E_{locus.level}: rank {locus.rank}, dim {locus.dim}, "
          f"{len(locus.weights)} weight lines")
for row in nform.fiber_dimension_table(spec):
    print(f"level {row.level} (case {row.case}): fibers {row.fiber_dims} "
          f"over {row.base_orbits}")
psi = nform.psi_fibration(spec)
print(f"first-program fibration: target {psi.target}, "
      f"fiber {psi.fiber_class} of dim {psi.fiber_dim}")
