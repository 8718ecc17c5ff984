"""
Tour 2: colored fans, the embedding checks, divisors and moment polytopes.

The running example is the projectivized split bundle over the projective
plane, presented as a family-one spec on SL3 x 1 x C* x C* with twisting
chain (0, 2, 3).
"""

from horokit import classify as cl, divisor as dv, horo, polyhedra as ph
from horokit.rootdata import GroupProduct, Root, SL, TORUS_FACTOR, TRIVIAL_FACTOR

G = GroupProduct((SL(3), TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR))
spec = cl.X1Spec(G, Root(0, 1), (Root(1, 0), Root(2, 0), Root(3, 0)), (0, 2, 3))
X = cl.build_x1(spec)

print("== Luna-Vust checks ==")
print("fan violations:", horo.validate_fan(X))
print("complete:", X.complete(), " locally factorial:", X.locally_factorial(),
      " smooth:", X.smooth())
print("picard rank:", X.picard_rank(), " dim X:", X.dim())
print("shape:", horo.case_detect(X))

print("\n== Boundary divisors and the nef basis ==")
D0, D3 = X.boundary_divisor(0), X.boundary_divisor(3)
for name, D in (("D0", D0), ("D3", D3), ("D0+D3", D0 + D3)):
    print(f"{name}: {dv.ample_status(X, D)}")
print("nef basis certificate:", dv.verify_nef_generators(X, D0, D3))

print("\n== Anticanonical divisor ==")
K = dv.anticanonical(X)
print("edge coefficients:", dict(K.gstable))
print("color coefficients:", {str(k): int(v) for k, v in K.colors.items()})
print("Fano:", dv.is_fano(X))

print("\n== Moment polytopes and sections ==")
system, v0 = dv.moment_polytopes(X, D0 + D3)
print("pseudo-moment vertices:", ph.vertices(system))
print("translation v0:", v0)
print("face counts by dim:",
      sorted((f.dim, 1) for f in ph.face_lattice(system)))
print("section weights of D0+D3:")
for w in dv.section_weights(X, D0 + D3):
    print("   ", w)
