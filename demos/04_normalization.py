"""
Tour 4: the normalization rewrite system.

Raw presentations get rewritten to the restricted normal form: equal-chain
ties across outer factors merge into a single type-A factor, lone
symplectic factors become type A, covering groups replace non-maximal
acting groups, and the second family converts to the first when its tail
pair is split or smooth of homogeneous type.  Products split off.
"""

from horokit import classify as cl, normalform as nform
from horokit.rootdata import (GroupFactor, GroupProduct, Root, SL, Sp, Spin,
                              TORUS_FACTOR, TRIVIAL_FACTOR)

E6 = GroupFactor("E", 6)

fixtures = {
    "first family on E6 with two torus ties": cl.X1Spec(
        GroupProduct((E6, TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR)),
        Root(0, 4),
        (Root(1, 0), Root(0, 5), Root(2, 0), Root(3, 0), Root(0, 1), Root(0, 2)),
        (0, 0, 1, 1, 2, 2)),
    "second family with a symplectic factor and a zero tie": cl.X2Spec(
        GroupProduct((SL(2), SL(3), Sp(8), Spin(7))),
        (Root(0, 1), Root(1, 1), Root(2, 1), Root(3, 1), Root(3, 3)),
        (0, 0, 1)),
    "second family with a split tail (the split bundle)": cl.X2Spec(
        GroupProduct((TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR, SL(2),
                      TRIVIAL_FACTOR)),
        (Root(0, 0), Root(1, 0), Root(2, 0), Root(3, 1), Root(4, 0)),
        (0, 2, 3)),
}

for label, raw in fixtures.items():
    nf = nform.normalize(raw)
    print(f"== {label} ==")
    print("raw group:   ", raw.G)
    print("normal form: ", nf.kind, " rc =", nf.rc)
    print("   group:", nf.spec.G)
    if isinstance(nf.spec, cl.X1Spec):
        print("   beta:", nf.spec.beta)
    print("   alphas:", nf.spec.alphas)
    print("   chain:", nf.spec.a)
    print("   dimension preserved:", raw.dim() == nf.spec.dim())
    print()

print("== product detection ==")
prod = nform.normalize(cl.X1Spec(GroupProduct((SL(4), SL(2), SL(3))),
                              Root(0, 2), (Root(1, 1), Root(2, 1)), (0, 0)))
print("kind:", prod.kind)
for part in prod.parts:
    print("   component:", part)
