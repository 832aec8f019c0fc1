"""Mutation checks: deliberate one-place faults that named tests must catch.

Usage, from the root of a checkout:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these
    python tests/mutants.py --list

Each mutant names a file under src/, an exact snippet that must occur in it
exactly once, its replacement, and the test ids that must fail. The runner
first runs every named test on an unchanged copy of src/, where all of them
must pass. Then, for each mutant, it copies src/ to a temporary directory,
applies the replacement there and runs the mutant's tests with that copy
first on PYTHONPATH; the mutant is killed when each of its test ids has a
failing test. The mutants run as many at a time as the process has CPUs,
each in its own copy, after the run on the unchanged copy; their results
print in list order. The checkout itself is never modified. The exit
status is 1 when a mutant survives, a snippet does not match exactly once,
a test fails on the unchanged copy or the package is not imported from the
copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "quantumgraphs")

ONE_SIDED = "tests/test_bimodule_oracle.py::test_one_sided_failures_match"
PERTURBED = "tests/test_bimodule_oracle.py::test_perturbed_edge_spaces_match"
MULTI_BLOCK = "tests/test_bimodule_oracle.py::test_multi_block_algebras_match"
PLANTED_TWINS = "tests/test_chromatic_oracle.py::test_chromatic_matches_oracle_with_planted_twins"
CHI_RANDOM = "tests/test_chromatic_oracle.py::test_chromatic_matches_oracle_on_random_graphs"
CHI_CLOSED_FORMS = "tests/test_chromatic_oracle.py::test_closed_forms_under_relabeling"
BFOLD_RANDOM = "tests/test_bfold_oracle.py::test_bfold_matches_lexicographic_oracle_on_random_graphs"
BFOLD_BEYOND = "tests/test_bfold_oracle.py::test_bfold_on_petersen_and_odd_cycles_beyond_the_oracle"
TRANSFORM_REPORT = "tests/test_cli.py::test_transform_prints_the_report_of_its_written_certificate"
GUARDED = "tests/test_cli.py::test_enumerations_past_the_guard_are_exit_three"
RESIDUAL_REFERENCE = ("tests/test_residual_properties.py::"
                      "test_max_residual_matches_the_per_matrix_reference")
RESIDUAL_NAN_BASIS = ("tests/test_residual_properties.py::"
                      "test_a_non_finite_basis_entry_gives_a_non_finite_residual")
GUARD_PROPERTY = ("tests/test_stack_properties.py::"
                  "test_constructions_refuse_or_fit_under_the_dense_limit")
HOMOMORPHISM_GUARD_PROPERTY = ("tests/test_stack_properties.py::"
                               "test_homomorphism_stacks_refuse_or_fit_under_the_dense_limit")
HOSTILE_KRAUS = ("tests/test_homomorphisms.py::"
                 "test_hostile_kraus_families_are_refused_before_their_stacks")
VERIFIER_GUARD_WINDOWS = ("tests/test_stack_properties.py::"
                          "test_verifier_stacks_at_their_narrow_windows")
REDUCE_ORACLE = "tests/test_reduce_oracle.py"
SCALE_ORACLE = "tests/test_scale_oracle.py"
MEMBERSHIP = "tests/test_structure_properties.py::test_membership_matches_the_basis_route"
RANGE_SANDWICH = ("tests/test_structure_properties.py::"
                  "test_range_sandwich_lies_between_dense_and_its_bound")
RANGE_PAIRS = ("tests/test_structure_properties.py::"
               "test_range_pairs_lie_between_dense_and_their_bound")
IDENTITY_NORM = ("tests/test_verify_oracle.py::"
                 "test_orthogonality_counts_the_norm_of_the_identity")
HOMOMORPHISM_ORACLE = ("tests/test_homomorphism_oracle.py::"
                       "test_verify_homomorphism_matches_the_per_pair_reference")
CROSS_PAIRS = ("tests/test_homomorphism_oracle.py::"
               "test_cross_pairs_fail_where_every_diagonal_pair_passes")
NOT_COORDINATE = ("tests/test_coordinate_route.py::"
                  "test_two_cell_conjugated_and_nan_spaces_are_not_coordinate")
PRODUCT_ORACLE = "tests/test_product_oracle.py"
CROSSCHECK_ORACLE = "tests/test_crosscheck_oracle.py"
OVERLAP = "tests/test_overlap_properties.py"
COMPLEMENT = "tests/test_complement_route.py"
PROPER_SUBGRAPH = (CROSSCHECK_ORACLE
                   + "::test_a_proper_subgraph_on_the_classical_side_fails")
KERNELS = "tests/test_solver_kernels.py"
OTHER_KIND = ("tests/test_products.py::"
              "test_classical_crosscheck_fails_on_another_kinds_product")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    Mutant("left-rows-as-columns", "qgraph.py",
           "sides = ((t, comp, live_rows, gone),",
           "sides = ((t, comp.transpose(1, 0, 2), live_rows, gone),",
           (ONE_SIDED,)),
    Mutant("right-columns-as-rows", "qgraph.py",
           "(t.transpose(0, 2, 1), comp.transpose(1, 0, 2), live_cols, gone.T))",
           "(t.transpose(0, 2, 1), comp, live_cols, gone.T))",
           (ONE_SIDED,)),
    Mutant("no-multiplicity-scaling", "qgraph.py",
           ".reshape(-1, mult * n) / np.sqrt(mult))",
           ".reshape(-1, mult * n))",
           (PERTURBED,)),
    Mutant("right-side-skipped", "qgraph.py",
           "sides = ((t, comp, live_rows, gone),\n"
           "             (t.transpose(0, 2, 1), comp.transpose(1, 0, 2), live_cols, gone.T))",
           "sides = ((t, comp, live_rows, gone),)",
           (ONE_SIDED,)),
    Mutant("row-mask-for-columns", "qgraph.py",
           "comp.transpose(1, 0, 2), live_cols, gone.T))",
           "comp.transpose(1, 0, 2), live_rows, gone.T))",
           (ONE_SIDED,)),
    Mutant("copy-and-unit-index-swapped", "qgraph.py",
           ".reshape(k, count, mult, d, n)[j, b, :, src]",
           ".reshape(k, count, d, mult, n)[j, b, src]",
           (MULTI_BLOCK, PERTURBED)),
    Mutant("first-block-chunk-only", "qgraph.py",
           "for b0 in range(0, count, width):",
           "for b0 in range(0, min(count, width), width):",
           (PERTURBED,)),
    # the residual of a matrix is also its part off the support U of the
    # basis, which the projection leaves unchanged
    Mutant("off-support-dropped", "opspace.py",
           "lost = _hs_norms(m.take(off, axis=1)[:, None]) if len(off) else 0.0",
           "lost = 0.0",
           (RESIDUAL_REFERENCE,)),
    # a coordinate space (k = u) is all of C^U: x off U is still residual;
    # in the cross-check only a quantum side larger than the classical one
    # has a part off the classical support
    Mutant("coordinate-drops-off-support", "opspace.py",
           "return _max_relative(lost + on_u, _hs_norms(m[:, None]))",
           "return _max_relative(on_u, _hs_norms(m[:, None]))",
           (RESIDUAL_REFERENCE, PROPER_SUBGRAPH)),
    # k < u orthonormal matrices span only part of C^U
    Mutant("coordinate-when-rank-short", "opspace.py",
           "return len(flat) == flat.shape[1] - len(off) and",
           "return len(flat) <= flat.shape[1] - len(off) and",
           (RESIDUAL_REFERENCE, NOT_COORDINATE)),
    # a NaN in place of a unit's entry keeps k = u, but spans nothing
    Mutant("coordinate-ignores-non-finite", "opspace.py",
           "len(off) and finite",
           "len(off)",
           (RESIDUAL_NAN_BASIS, NOT_COORDINATE)),
    # with d > 1 a commutant unit moves a slice off U
    Mutant("bimodule-coordinate-skips-lost", "qgraph.py",
           "if coordinate and d == 1:",
           "if coordinate:",
           ("tests/test_bimodule_properties.py::test_sparse_residual_matches_dense",)),
    Mutant("orthonormalize-accepts-non-finite", "opspace.py",
           "    if not finite.all():",
           "    if False:",
           ("tests/test_opspace.py::test_orthonormalize_rejects_a_non_finite_entry",
            "tests/test_coordinate_route.py::test_products_refuse_a_non_finite_factor")),
    # a NaN in the basis must keep its coordinate on U: NaN > 0 is False
    Mutant("support-drops-nan", "opspace.py",
           "live = flat.any(axis=0)",
           "live = (np.abs(flat) > 0).any(axis=0)",
           (RESIDUAL_NAN_BASIS,)),
    # NaN > tol is False, so "not > tol" passes a NaN residual
    Mutant("check-passes-nan", "report.py",
           "return self.residual <= self.tol",
           "return not self.residual > self.tol",
           ("tests/test_bimodule_oracle.py::test_nan_in_the_edge_space_fails_without_raising",
            "tests/test_bimodule_properties.py::test_a_nan_in_the_edge_space_fails",
            "tests/test_coloring.py::test_nan_entry_fails_the_coloring_condition")),
    # the classical edge positions read off the quantum side's own support
    Mutant("crosscheck-against-itself", "products.py",
           "_span_residuals(quantum.S, edges.ravel())",
           "_span_residuals(quantum.S, quantum.S.basis.any(axis=0).ravel())",
           (OTHER_KIND, PROPER_SUBGRAPH,
            "tests/test_cli.py::test_product_classical_fails_on_another_kinds_product")),
    # a classical edge unit off a coordinate quantum side is orthogonal to it
    Mutant("crosscheck-units-off-support-ignored", "products.py",
           "units_in = float(on[s._support[1]].any())",
           "units_in = 0.0",
           (OTHER_KIND,
            CROSSCHECK_ORACLE + "::test_classical_pairs_match_the_reference_bitwise")),
    # s_j* lands off U where a transpose of a position off U lies on U
    Mutant("adjoint-early-exit-tests-u", "qgraph.py",
           "if np.array_equal(np.sort(moved), off):",
           "if np.array_equal(np.sort(off), off):",
           ("tests/test_coordinate_route.py::"
            "test_adjoint_route_matches_max_residual_bitwise_on_coordinate_spaces",)),
    # a commutant unit sums its block's copies
    Mutant("overlap-takes-one-copy", "qgraph.py",
           "units = diag.reshape(count, mult, len(t), d, d).sum(axis=1)",
           "units = diag.reshape(count, mult, len(t), d, d)[:, 0]",
           (OVERLAP + "::test_overlap_matches_the_gram",)),
    # a NaN off the commutant's diagonal blocks is never gathered
    Mutant("overlap-ignores-non-finite", "qgraph.py",
           "    if not s._finite:\n        return float(\"nan\")\n    worst = [0.0]\n",
           "    worst = [0.0]\n",
           (OVERLAP + "::test_a_non_finite_entry_anywhere_gives_nan",)),
    # a sketch's QR may leave the kernel of F; only a forced rank-deficient
    # sketch shows that nothing else vouches for it
    Mutant("complement-certificate-skipped", "qgraph.py",
           "if (k + g.shape[1] == u and np.max(np.abs(fu @ g)) <= ORTHONORMAL_TOL",
           "if True or (k + g.shape[1] == u and np.max(np.abs(fu @ g)) <= ORTHONORMAL_TOL",
           (COMPLEMENT + "::test_a_rank_deficient_sketch_falls_back_to_the_svd",)),
    # r - 1 columns, sketch and SVD alike, miss one direction of the complement
    Mutant("complement-one-column-short", "qgraph.py",
           "    r = u - k\n",
           "    r = u - k - 1\n",
           (COMPLEMENT + "::test_generated_graphs_match_the_projector_route",)),
    # t_j* off the support U of T is residual however C acts on U
    Mutant("adjoint-factor-drops-off-support", "qgraph.py",
           "norms = _hs_norms(x.take(outside, axis=1)[:, None])",
           "norms = np.zeros(len(x))",
           (COMPLEMENT + "::test_generated_graphs_match_the_projector_route",)),
    # NaN > tol is False: a NaN matrix would pass as unitary
    Mutant("check-unitary-accepts-nan", "opspace.py",
           "if not hs_norm(u.conj().T @ u - np.eye(n)) <= tol:",
           "if hs_norm(u.conj().T @ u - np.eye(n)) > tol:",
           ("tests/test_opspace.py::test_check_unitary_refuses_a_non_finite_matrix",
            "tests/test_qgraph.py::test_non_finite_conjugators_are_refused")),
    # the four products share one vertex count, not one graph
    Mutant("bounds-memo-keyed-by-vertex-count", "classical.py",
           "solved = {p: chromatic_exact(p) for p in set(graphs.values())}\n"
           "    prod_chi = {kind: solved[p] for kind, p in graphs.items()}",
           "solved = {p.vertex_count: chromatic_exact(p) for p in set(graphs.values())}\n"
           "    prod_chi = {kind: solved[p.vertex_count] for kind, p in graphs.items()}",
           ("tests/test_cli.py::test_report_bounds_matches_golden",
            "tests/test_classical.py::"
            "test_bounds_report_solves_each_distinct_product_once")),
    Mutant("classical-product-without-g-edges", "classical.py",
           "edges = [(v * nh + a, w * nh + b) for v, w in g.edges for a, b in along]",
           "edges = []",
           ("tests/test_product_properties.py::"
            "test_classical_product_matches_the_vertex_pair_definition",
            "tests/test_classical.py::test_classical_product_edge_counts")),
    # parts that overlap are not orthonormal however orthonormal each one is
    Mutant("product-gram-diagonal-blocks-only", "products.py",
           "        devs += [peak(gl[a, c]) * peak(gr[b, d]) for c, d in pairs[p + 1:]]\n",
           "",
           (PRODUCT_ORACLE + "::test_overlapping_parts_take_the_svd_route_bitwise",)),
    Mutant("product-part-factors-swapped", "products.py",
           "_kron_stack(left[a].basis, right[b].basis, out=family[start:end])",
           "_kron_stack(right[b].basis, left[a].basis, out=family[start:end])",
           (PRODUCT_ORACLE + "::test_classical_pairs_match_bitwise",)),
    # real factors have real Grams; only complex ones need the conjugate
    Mutant("product-gram-drops-conj", "products.py",
           "return x._flat @ y._flat.conj().T",
           "return x._flat @ y._flat.T",
           (PRODUCT_ORACLE + "::test_haar_conjugated_quantum_factors_match_bitwise",)),
    Mutant("strong-product-without-its-s-s-part", "products.py",
           '"strong": (("S", "C"), ("C", "S"), ("S", "S")),',
           '"strong": (("S", "C"), ("C", "S")),',
           ("tests/test_product_properties.py::"
            "test_product_dimension_follows_the_counting_formula",)),
    # the twin rule must group by closed neighbourhood: false twins may
    # share a color class, so merging them loses colorings
    Mutant("open-neighbourhood-twins", "classical.py",
           "closed = a | 1 << v",
           "closed = a",
           (PLANTED_TWINS,)),
    Mutant("every-twin-dropped", "classical.py",
           "inside &= ~(m & (m - 1))",
           "inside &= ~m",
           (PLANTED_TWINS, CHI_CLOSED_FORMS)),
    # the root is an ordinary remainder: its alpha alone sets ceil(n / alpha)
    Mutant("chromatic-root-alpha-one-too-small", "classical.py",
           "alpha = {full: _max_independent_mask(adj, full & ~dup).bit_count()}",
           "alpha = {full: _max_independent_mask(adj, full & ~dup).bit_count() - 1}",
           (CHI_CLOSED_FORMS,)),
    Mutant("chromatic-alpha-one-too-small", "classical.py",
           "alpha[rest] = alpha_above = _max_independent_mask(adj, rest).bit_count()",
           "alpha[rest] = alpha_above = _max_independent_mask(adj, rest).bit_count() - 1",
           (CHI_RANDOM,)),
    # max(lo, clique + 1): the greedy clique counted one vertex too large
    Mutant("chromatic-clique-bound-one-too-large", "classical.py",
           "lo = _greedy_clique_size(adj, rest, lo)",
           "lo = max(lo, _greedy_clique_size(adj, rest, lo - 1) + 1)",
           (CHI_RANDOM, CHI_CLOSED_FORMS)),
    Mutant("dsatur-ties-to-the-highest-index", "classical.py",
           "s == pick_sat and degree[v] > pick_deg",
           "s == pick_sat and degree[v] >= pick_deg",
           (KERNELS + "::test_dsatur_colorings_match_the_set_based_reference",)),
    Mutant("independent-sets-pivot-last-maximum", "classical.py",
           "k = (cand & ~adj[u] & ~low).bit_count()\n"
           "            if k > most:",
           "k = (cand & ~adj[u] & ~low).bit_count()\n"
           "            if k >= most:",
           (KERNELS + "::test_maximal_independent_sets_match_the_lambda_pivot_reference",)),
    Mutant("fewest-non-neighbours-ties-to-the-last", "classical.py",
           "if k < fewest:",
           "if k <= fewest:",
           (KERNELS + "::test_fewest_non_neighbours_is_the_first_minimum",)),
    Mutant("most-neighbours-ties-to-the-last", "classical.py",
           "k = (adj[u] & avail).bit_count()\n"
           "        if k > most:",
           "k = (adj[u] & avail).bit_count()\n"
           "        if k >= most:",
           (KERNELS + "::test_most_neighbours_is_the_first_maximum",)),
    Mutant("greedy-clique-stops-one-early", "classical.py",
           "size + avail.bit_count() > floor:",
           "size + avail.bit_count() > floor + 1:",
           (KERNELS + "::test_greedy_clique_size_is_the_reference_raised_to_its_floor",)),
    Mutant("bfold-alpha-one-too-small", "classical.py",
           "cls.bit_count() for cls in _cover_classes(adj, rest))",
           "cls.bit_count() for cls in _cover_classes(adj, rest)) - 1",
           (BFOLD_BEYOND,)),
    # a class must lower each vertex's demand by one level, not clear it
    Mutant("bfold-spend-without-level-shift", "classical.py",
           "return (demand & ~rep) | ((demand >> n) & rep)",
           "return (demand & ~rep) | (demand & rep)",
           (BFOLD_RANDOM, BFOLD_BEYOND)),
    Mutant("bfold-clique-bound-one-too-large", "classical.py",
           "lo = max(lo, clique_demand(demand))",
           "lo = max(lo, clique_demand(demand) + 1)",
           (BFOLD_RANDOM, BFOLD_BEYOND)),
    Mutant("reduce-bfold-unpruned", "coloring.py",
           "cert.ancilla_dim).pruned(tol)",
           "cert.ancilla_dim).pruned(-1.0)",
           ("tests/test_certificate_properties.py::"
            "test_reduce_bfold_passes_one_fold_lower_on_fewer_colors",
            "tests/test_coloring.py::test_reduce_bfold_drops_a_color")),
    # dropping each subset's largest color still leaves a passing coloring
    # on fewer colors; only the running-intersection oracle tells them apart
    Mutant("reduce-drops-largest-color", "coloring.py",
           "bfold_from_pvm(subsets[:, 1:], q,",
           "bfold_from_pvm(subsets[:, :-1], q,",
           (REDUCE_ORACLE + "::test_local_certificates_reduce_bitwise_as_the_loop",
            REDUCE_ORACLE + "::test_conjugated_certificates_reduce_as_the_loop")),
    Mutant("scale-bfold-one-copy-short", "coloring.py",
           "np.tile(cert.projections, (b, 1, 1))",
           "np.tile(cert.projections, (b - 1, 1, 1))",
           ("tests/test_coloring.py::test_scale_bfold_stacks_disjoint_palettes",
            TRANSFORM_REPORT + "[scale]",
            SCALE_ORACLE + "::test_repeated_bell_passes_and_forces_its_colors")),
    # the b copies of each P_a side by side are a valid palette with its
    # colors renumbered; only the bitwise comparison with the chain sees it
    Mutant("scale-interleaves-copies", "coloring.py",
           "np.tile(cert.projections, (b, 1, 1))",
           "np.repeat(cert.projections, b, axis=0)",
           (SCALE_ORACLE + "::test_local_colorings_scale_bitwise_as_the_combine_chain",
            SCALE_ORACLE + "::test_witness_colorings_scale_bitwise_as_the_combine_chain")),
    # every transform's report must be of the certificate it built
    Mutant("transform-verifies-its-input", "cli.py",
           "rep = verify(graph, out, args.tol)",
           "rep = verify(graph, serialize.load_certificate(args.certificate), args.tol)",
           (TRANSFORM_REPORT,)),
    # the guards below are tested in a child process capped at 1.5 GB,
    # so without them the child fails with a MemoryError or a timeout, or is
    # refused by a later guard whose message the test does not accept
    Mutant("subset-products-unguarded", "coloring.py",
           "check_dense_size(m * (8 * k + 16 * d * d),",
           "check_dense_size(0,",
           (GUARDED + "[subsets]",)),
    Mutant("combine-stacks-unguarded", "coloring.py",
           "check_dense_size(16 * m * dim * dim,",
           "check_dense_size(0,",
           (GUARDED + "[combine]",)),
    Mutant("scale-unguarded", "coloring.py",
           'check_dense_size(16 * prod(shape), "the repeated palette',
           'check_dense_size(0, "the repeated palette',
           (GUARDED + "[scale]",)),
    Mutant("lift-unguarded", "coloring.py",
           "check_dense_size(16 * prod(lead) * d * d,",
           "check_dense_size(0,",
           (GUARDED + "[strong-lift]", GUARDED + "[lex]", GUARDED + "[cat-lift]",
            GUARD_PROPERTY)),
    Mutant("rebuilt-colors-unguarded", "coloring.py",
           'check_dense_size(16 * prod(shape), "the rebuilt colors',
           'check_dense_size(0, "the rebuilt colors',
           (GUARDED + "[lex-few-colors]", GUARD_PROPERTY)),
    Mutant("commutators-unguarded", "coloring.py",
           'check_dense_size(16 * prod(shape), "the commutator stack',
           'check_dense_size(0, "the commutator stack',
           (GUARDED + "[commutators]", VERIFIER_GUARD_WINDOWS + "[commutators]")),
    # the range sandwich's guard counts every partner of the widest row
    Mutant("pvm-pairs-unguarded", "coloring.py",
           "r * ((k + 1) * big + wide * (big + k * r))",
           "r * ((k + 1) * big + big + k * r)",
           (GUARDED + "[pvm-pairs]", VERIFIER_GUARD_WINDOWS + "[pvm-pairs]")),
    Mutant("ranges-unguarded", "coloring.py",
           "check_dense_size(64 * c * n * n,",
           "check_dense_size(0,",
           (VERIFIER_GUARD_WINDOWS + "[ranges]",)),
    Mutant("range-sandwich-unguarded", "coloring.py",
           "check_dense_size(side + row,",
           "check_dense_size(0,",
           (VERIFIER_GUARD_WINDOWS + "[range-sandwich]",)),
    Mutant("homomorphism-stacks-unguarded", "coloring.py",
           'check_dense_size(16 * m * k * nt * (k * nt + d_in), "the Kraus pair stack',
           'check_dense_size(0, "the Kraus pair stack',
           (HOSTILE_KRAUS + "[pairs]", HOMOMORPHISM_GUARD_PROPERTY)),
    Mutant("homomorphism-products-unguarded", "coloring.py",
           'check_dense_size(16 * d_in * d_in, "the Kraus product',
           'check_dense_size(0, "the Kraus product',
           (HOSTILE_KRAUS + "[products]",)),
    # F_i (Y (x) I) F_j* for i = j alone misses the cross pairs
    Mutant("kraus-pairs-diagonal-only", "coloring.py",
           "reshape(len(ops), k, 1, nt, d_in) @ adj",
           "reshape(len(ops), k, nt, d_in) @ adj",
           (CROSS_PAIRS,)),
    Mutant("pvm-masks-unguarded", "coloring.py",
           "check_dense_size(3 * len(live) ** 2,",
           "check_dense_size(0,",
           (GUARDED + "[pvm-masks]", VERIFIER_GUARD_WINDOWS + "[pvm-masks]")),
    Mutant("kneser-count-before-the-vertex-bound", "classical.py",
           "at_least = b < c and c > _KNESER_VERTEX_LIMIT",
           "at_least = False",
           (GUARDED + "[kneser]",)),
    Mutant("conjugate-graph-without-conj", "qgraph.py",
           "u.conj().T @ graph.S.basis @ u",
           "u.T @ graph.S.basis @ u",
           ("tests/test_qgraph.py::test_conjugate_graph_preserves_axioms",
            "tests/test_coloring.py::test_unitary_invariance_of_bfold_certificates")),
    Mutant("pvm-partners-skipped", "coloring.py",
           "ranges, ~np.tri(len(live), dtype=bool),",
           "ranges, ~np.tri(len(live), k=1, dtype=bool),",
           ("tests/test_verify_oracle.py::"
            "test_random_noncommuting_projections_match_the_oracle",)),
    # the conditional expectation averages a block's copies: 1/m, not 1/sqrt(m)
    Mutant("copies-averaged-by-sqrt", "qgraph.py",
           "g -= g.sum(axis=1, keepdims=True) / mult",
           "g -= g.sum(axis=1, keepdims=True) / np.sqrt(mult)",
           (MEMBERSHIP,)),
    Mutant("conjugator-on-the-wrong-side", "qgraph.py",
           "y = x.copy() if u is None else u.conj().T @ x @ u",
           "y = x.copy() if u is None else u @ x @ u.conj().T",
           (MEMBERSHIP,)),
    # zeroing the copies by assignment drops a NaN on a one-copy block
    Mutant("copies-zeroed-by-assignment", "qgraph.py",
           "diag[:, t, :, t] *= 0",
           "diag[:, t, :, t] = 0",
           ("tests/test_structure_properties.py::"
            "test_a_non_finite_entry_on_a_one_copy_block_gives_nan",)),
    # ||P X Q|| needs the singular values: A = S V*, not V*
    Mutant("singular-weights-dropped", "coloring.py",
           "a = w[:, :, None] * vh[:, :r]",
           "a = vh[:, :r]",
           (RANGE_SANDWICH, RANGE_PAIRS)),
    # a row splits as (graph, ancilla), the graph leg first
    Mutant("graph-leg-legs-swapped", "coloring.py",
           "legs = rows.reshape(m, r, n, d).transpose(0, 1, 3, 2).reshape(-1, n)",
           "legs = rows.reshape(m, r, d, n).reshape(-1, n)",
           (RANGE_SANDWICH, RANGE_PAIRS, HOMOMORPHISM_ORACLE)),
    # ||X (x) I_d|| = sqrt(d) ||X||
    Mutant("range-bound-without-ancilla", "coloring.py",
           "xnorm = d ** 0.5 * _hs_norms(ops)",
           "xnorm = _hs_norms(ops)",
           (IDENTITY_NORM + "[40-4]",)),
    # every operator of norm 1: for the identity, the orthogonality bound
    # without sqrt(N)
    Mutant("range-bound-operators-of-norm-one", "coloring.py",
           "xnorm = d ** 0.5 * _hs_norms(ops)",
           "xnorm = np.ones(k)",
           (IDENTITY_NORM,)),
    # np.nanmax drops the NaN of a non-finite matrix
    Mutant("worst-drops-nan", "opspace.py",
           "return float(np.max(_hs_norms(x), initial=0.0))",
           "return float(np.nanmax(_hs_norms(x), initial=0.0))",
           ("tests/test_coloring.py::test_extract_keeps_a_nan_residual",
            "tests/test_verify_oracle.py::"
            "test_bell_coloring_with_a_nan_entry_matches_the_oracle")),
    # a demand vector solved with bound colors failed only with bound - 1
    Mutant("bfold-memo-records-the-found-count", "classical.py",
           "fails[demand] = max(fails.get(demand, 0), max(lo, bound) - 1)",
           "fails[demand] = max(fails.get(demand, 0), max(lo, bound))",
           ("tests/test_bfold_oracle.py::"
            "test_a_found_count_is_not_memoized_as_a_failure",)),
    # copy j and index i of a block swap roles in the commutant
    Mutant("commutant-order-unswapped", "qgraph.py",
           "order = [o + j * k + i",
           "order = [o + i * m + j",
           ("tests/test_block_algebra_properties.py::"
            "test_commutant_units_commute_with_algebra_units",)),
    Mutant("tensor-columns-in-leg-order", "qgraph.py",
           "for i in range(nr) for j in range(ns)\n"
           "                 for p in range(kr) for q in range(ks)]",
           "for i in range(nr) for p in range(kr)\n"
           "                 for j in range(ns) for q in range(ks)]",
           ("tests/test_block_algebra_properties.py::"
            "test_tensor_is_the_span_of_kron_products",)),
    # a color shared by several subsets must get the sum of their products
    Mutant("pvm-rebuild-overwrites", "coloring.py",
           "np.add.at(projs, subsets, q[:, None])",
           "projs[subsets] = q[:, None]",
           ("tests/test_stack_properties.py::"
            "test_lexicographic_coloring_matches_the_loop",)),
    # np.add.at wraps a negative color round to the end of the palette
    Mutant("pvm-rebuild-range-unchecked", "coloring.py",
           "if subsets.size and not 0 <= subsets.min() <= subsets.max() < colors:",
           "if False:",
           ("tests/test_coloring.py::"
            "test_bfold_from_pvm_rejects_malformed_families[negative]",)),
    # a zero product met with a NaN edge operator gives NaN, not zero
    Mutant("live-subsets-without-finiteness-guard", "coloring.py",
           "if np.isfinite(q).all() and np.isfinite(edge_ops).all():",
           "if True:",
           ("tests/test_verify_oracle.py::"
            "test_nonfinite_subset_products_meet_their_zero_partners",)),
]


def env_for(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def imported_from(src: str) -> str:
    """Where the package is imported from with ``src`` first on the path."""
    return subprocess.run(
        [sys.executable, "-c", "import quantumgraphs; print(quantumgraphs.__file__)"],
        cwd=ROOT, env=env_for(src), capture_output=True, text=True).stdout.strip()


def run_tests(src: str, tests) -> set:
    """Run the tests with ``src`` first on the path; the failing node ids."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
         "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env_for(src), capture_output=True, text=True)
    failed = set()
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            failed.add(line.split()[1])
    if proc.returncode not in (0, 1):
        failed.add("<pytest exit %d>" % proc.returncode)
    return failed


def caught(test: str, failed: set) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def copy_src(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def check(m: Mutant) -> tuple:
    """(the mutant's result line, whether it counts as a failure)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        path = os.path.join(tmp, PACKAGE, m.file)
        with open(path) as fh:
            text = fh.read()
        if text.count(m.old) != 1:
            return ("%-38s snippet matches %d times in %s"
                    % (m.name, text.count(m.old), m.file)), True
        with open(path, "w") as fh:
            fh.write(text.replace(m.old, m.new))
        failed = run_tests(src, m.tests)
    survived = [t for t in m.tests if not caught(t, failed)]
    return ("%-38s %s" % (m.name, "SURVIVED by %s" % ", ".join(survived)
                          if survived else "killed")), bool(survived)


def cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(m.name)
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        where = imported_from(src)
        if not where.startswith(src + os.sep):
            print("the copy of src/ is not what gets imported (got %r)" % where)
            return 1
        tests = sorted({t for m in chosen for t in m.tests})
        failed = run_tests(src, tests)
        if failed:
            print("tests fail on the unchanged source: %s" % ", ".join(sorted(failed)))
            return 1
    bad = 0
    with ThreadPoolExecutor(max_workers=cpus()) as pool:
        for line, failure in pool.map(check, chosen):
            print(line, flush=True)
            bad += failure
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
