"""horokit: exact combinatorics of rank-two horospherical varieties.

Subpackages, bottom to top: linalg (exact rational kernels), polyhedra
(inequality systems and face lattices), rootdata (Dynkin combinatorics and
the smoothness predicates), horo (colored fans and the Luna-Vust checks),
divisor (divisor criteria and moment polytopes), quadruple (the orbit/face
dictionary), mmp (the parametric Log-MMP engine and its closed forms),
classify (the two standard families, restricted conditions and the
normalization rewrite system), cli (command-line driver).  lp (an exact
simplex) is the tests' reference; no program module imports it.
"""

__version__ = "0.1.0"
