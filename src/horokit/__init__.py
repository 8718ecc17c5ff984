"""horokit: exact combinatorics of rank-two horospherical varieties.

Modules, bottom to top: record (immutable value records), linalg (exact
rational kernels), polyhedra (inequality systems and face lattices),
rootdata (Dynkin combinatorics and the smoothness predicates), horo
(colored fans and the Luna-Vust checks), divisor (divisor criteria and
moment polytopes), quadruple (the orbit/face dictionary), mmp (the
parametric Log-MMP engine and its closed forms), classify (the two standard
families, their builders and restricted conditions), normalform (the
normalization rewrite system, exceptional loci and fiber tables),
reference_tables (the enumeration's reference list), svgfig (figures), cli
(command-line driver).  lp (an exact simplex) is the tests' reference; no
program module imports it.
"""

__version__ = "0.1.0"
