"""Finite-dimensional quantum graphs: products, coloring certificates, and
exact classical oracles.

A quantum graph is a pair (S, M): an adjoint-closed operator subspace S of
M_n, orthogonal to the commutant of a block von Neumann algebra M and a
bimodule over it. Classical graphs embed with S spanned by edge matrix units
over the diagonal algebra. The package builds the four graph products at
this level, verifies coloring and homomorphism certificates (local and
quantum), transforms b-fold certificates constructively, and cross-checks
everything against exact classical solvers.
"""

from .classical import (BFoldAssignment, ClassicalGraph, SizeGuardError,
                        bfold_exact, chromatic_exact, classical_product,
                        clique_number, complete, cycle, graph_homomorphism,
                        kneser, kneser_hom_check, max_independent_set,
                        parse_dimacs, path, petersen, random_graph, to_dimacs)
from .coloring import (ColoringCertificate, HomomorphismCertificate,
                       bell_coloring, bfold_from_pvm, categorical_lift,
                       combine_bfold, complete_lower_bound_extract,
                       hedetniemi_witness, lexicographic_coloring,
                       pvm_from_bfold, reduce_bfold, sabidussi_witness,
                       scale_bfold, strong_coloring, to_local_cert,
                       verify_bfold, verify_coloring, verify_homomorphism)
from .opspace import (DEFAULT_TOL, OperatorSubspace, hs_norm, orthonormalize,
                      permute_systems, projection_meet)
from .products import (LEXICOGRAPHIC_NOTE, PRODUCT_KINDS, cartesian,
                       categorical, classical_crosscheck, product)
from .qgraph import (BlockAlgebra, QuantumGraph, complete_quantum_graph,
                     conjugate_graph, from_classical, is_subgraph,
                     verify_quantum_graph)
from .report import Check, VerificationFailure, VerificationReport

__version__ = "0.1.0"
