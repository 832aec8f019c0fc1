"""Block algebras, commutants, and the quantum graph axioms."""

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs.opspace import DEFAULT_TOL, orthonormalize
from quantumgraphs import qgraph
from quantumgraphs.qgraph import BlockAlgebra


def span_of(alg):
    return orthonormalize(alg.basis().basis)


def test_block_algebra_dim_is_sum_of_squares():
    m = BlockAlgebra([(3, 1), (1, 2)])
    assert m.dim == 1 + 4
    assert m.ambient_dim == 5
    assert span_of(m).dim == m.dim


def test_full_and_diagonal():
    assert BlockAlgebra.full(3).dim == 9
    d = BlockAlgebra.diagonal(3)
    assert d.dim == 3
    diag = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert span_of(d).max_residual([diag]) <= DEFAULT_TOL
    assert span_of(d).max_residual([np.ones((3, 3), dtype=complex)]) > DEFAULT_TOL


def test_commutant_of_full_is_scalars_and_of_diagonal_is_diagonal():
    cf = BlockAlgebra.full(3).commutant()
    assert cf.dim == 1
    assert span_of(cf).max_residual([np.eye(3, dtype=complex)]) <= DEFAULT_TOL
    cd = BlockAlgebra.diagonal(3).commutant()
    assert span_of(cd).equals_span(span_of(BlockAlgebra.diagonal(3)))


@pytest.mark.parametrize("blocks", [((2, 2),), ((1, 3),), ((3, 1), (1, 2))])
def test_commutant_elements_commute(blocks, haar):
    n = sum(a * b for a, b in blocks)
    m = BlockAlgebra(list(blocks), conjugator=haar(n, seed=n))
    prim = m.basis()
    comm = m.commutant().basis()
    worst = max(np.max(np.abs(a @ b - b @ a)) for a in prim.basis for b in comm.basis)
    assert worst < 1e-12
    # dimension count: multiplicities and block sizes trade places
    assert m.commutant().dim == sum(a * a for a, _ in blocks)


@pytest.mark.parametrize("blocks", [((2, 2),), ((1, 3),), ((3, 1), (1, 2))])
def test_double_commutant_returns(blocks, haar):
    n = sum(a * b for a, b in blocks)
    m = BlockAlgebra(list(blocks), conjugator=haar(n, seed=7 * n))
    again = m.commutant().commutant()
    assert span_of(again).equals_span(span_of(m))


def test_algebra_tensor_spans_kron_products():
    m1 = BlockAlgebra.diagonal(2)
    m2 = BlockAlgebra([(1, 2)])  # one M_2 block, ambient dimension 2
    t = m1.tensor(m2)
    assert t.ambient_dim == m1.ambient_dim * m2.ambient_dim
    assert t.dim == m1.dim * m2.dim
    ts = span_of(t)
    for a in m1.basis().basis:
        for b in m2.basis().basis:
            assert ts.max_residual([np.kron(a, b)]) <= DEFAULT_TOL


def test_tensor_commutant_consistency(haar):
    # (M1 (x) M2)' must equal M1' (x) M2'
    m1 = BlockAlgebra([(2, 1), (1, 1)], conjugator=haar(3, seed=1))
    m2 = BlockAlgebra.full(2)
    lhs = span_of(m1.tensor(m2).commutant())
    rhs = span_of(m1.commutant().tensor(m2.commutant()))
    assert lhs.equals_span(rhs)


def test_identity_frames_are_never_formed(monkeypatch):
    """With no conjugator, a commutant whose blocks are all (1, k) or
    (m, 1), and a tensor product of two diagonal algebras or with one
    block (1, k) on the right, keep the columns in order: they get no
    conjugator, as the identity frame they used to form, check and drop
    gave, and check_unitary is never called."""
    d5, f3, mixed = (BlockAlgebra.diagonal(5), BlockAlgebra.full(3),
                     BlockAlgebra([(1, 2), (3, 1)]))

    def refuse(u, n, what, tol=DEFAULT_TOL):
        raise AssertionError("check_unitary called on the %s" % what)

    monkeypatch.setattr(qgraph, "check_unitary", refuse)
    algebras = [d5, f3, mixed]
    commutants = [m.commutant() for m in algebras]
    tensors = [(m1, m2, m1.tensor(m2)) for m1, m2 in [
        (d5, BlockAlgebra.diagonal(3)), (f3, BlockAlgebra.full(2)),
        (mixed, f3), (BlockAlgebra([(2, 2)]), f3)]]
    monkeypatch.undo()
    for m, c in zip(algebras, commutants):
        assert c.conjugator is None
        assert c.blocks == tuple((k, n) for n, k in m.blocks)
    for m1, m2, t in tensors:
        assert t.conjugator is None
        assert t.blocks == tuple((a * c, b * d) for a, b in m1.blocks for c, d in m2.blocks)
        assert span_of(t).equals_span(orthonormalize(
            [np.kron(a, b) for a in m1.basis().basis for b in m2.basis().basis]))
    # a block with copies and size > 1 reorders its columns: a frame remains
    assert BlockAlgebra([(2, 2)]).commutant().conjugator is not None


def test_conjugated_by(haar):
    m = BlockAlgebra([(2, 2)])
    u = haar(4, seed=3)
    moved = m.conjugated_by(u)
    for a in m.basis().basis:
        assert span_of(moved).max_residual([u.conj().T @ a @ u]) <= DEFAULT_TOL


def test_block_algebra_validation(haar):
    with pytest.raises(ValueError):
        BlockAlgebra([(0, 2)])
    with pytest.raises(ValueError):
        BlockAlgebra([(2, 2)], conjugator=np.ones((4, 4)))
    with pytest.raises(ValueError):
        BlockAlgebra([(2, 2)], conjugator=haar(3, seed=0))


def test_from_classical_c5():
    g = qg.from_classical(qg.cycle(5))
    assert g.n == 5
    assert g.S.dim == 10  # one matrix unit per ordered edge
    e01 = np.zeros((5, 5), complex)
    e01[0, 1] = 1.0
    e02 = np.zeros((5, 5), complex)
    e02[0, 2] = 1.0
    assert g.S.max_residual([e01]) <= DEFAULT_TOL
    assert g.S.max_residual([e02]) > DEFAULT_TOL
    rep = qg.verify_quantum_graph(g)
    assert rep.passed, "\n%s" % rep
    assert rep.max_residual < 1e-12


def test_complete_quantum_graph_dimensions():
    kd = qg.complete_quantum_graph(BlockAlgebra.diagonal(4))
    assert kd.S.dim == 16 - 4
    kf = qg.complete_quantum_graph(BlockAlgebra.full(2))
    assert kf.S.dim == 4 - 1
    km = qg.complete_quantum_graph(BlockAlgebra([(2, 2)]))
    assert km.S.dim == 16 - 4  # commutant I2 (x) M2 has dimension 4
    for k in (kd, kf, km):
        rep = qg.verify_quantum_graph(k)
        assert rep.passed, "\n%s" % rep


def test_classical_embeddings_sit_inside_the_complete_graph():
    c4 = qg.from_classical(qg.cycle(4))
    complete = qg.complete_quantum_graph(BlockAlgebra.diagonal(4))
    assert qg.is_subgraph(c4, complete)
    assert not qg.is_subgraph(complete, c4)


def test_is_subgraph_rejects_mismatched_graphs():
    c4 = qg.from_classical(qg.cycle(4))
    c5 = qg.from_classical(qg.cycle(5))
    with pytest.raises(ValueError):
        qg.is_subgraph(c4, c5)
    full4 = qg.complete_quantum_graph(BlockAlgebra.full(4))
    with pytest.raises(ValueError):
        qg.is_subgraph(c4, full4)  # same dimension, different algebra


def test_is_subgraph_compares_algebras_not_conjugators(haar):
    """A diagonal unitary changes D_3's conjugator but not D_3 itself."""
    moved = qg.conjugate_graph(qg.from_classical(qg.cycle(3)), np.diag([1, 1j, -1]))
    assert moved.M.conjugator is not None
    complete = qg.complete_quantum_graph(BlockAlgebra.diagonal(3))
    assert moved.M.equals(complete.M) and complete.M.equals(moved.M)
    assert qg.is_subgraph(moved, complete)
    path = qg.conjugate_graph(qg.from_classical(qg.path(3)), np.diag([1, 1j, -1]))
    assert qg.is_subgraph(path, complete) and not qg.is_subgraph(complete, path)
    assert not BlockAlgebra.diagonal(3).equals(BlockAlgebra.diagonal(3).conjugated_by(haar(3, 2)))


def test_algebra_equality_ignores_block_order():
    # C + M_2 on (e0 | e1, e2), and M_2 + C on (e0, e1 | e2) moved by e_i -> e_{i+1}
    shift = np.roll(np.eye(3), 1, axis=0)
    a = BlockAlgebra([(1, 1), (1, 2)])
    assert a.equals(BlockAlgebra([(1, 2), (1, 1)], shift))
    assert not a.equals(BlockAlgebra([(1, 2), (1, 1)]))
    assert not a.equals(BlockAlgebra([(3, 1)]))


def test_verify_rejects_reflexive_edge_space():
    base = qg.from_classical(qg.complete(3))
    s_bad = orthonormalize(np.concatenate([base.S.basis, np.eye(3)[None]]))
    rep = qg.verify_quantum_graph(qg.QuantumGraph(s_bad, base.M))
    assert not rep.passed
    assert any("orthogonal" in c.name for c in rep.failures())


def test_verify_rejects_non_bimodule():
    a = np.zeros((3, 3), complex)
    a[0, 1] = a[1, 2] = 1.0
    s = orthonormalize([a, a.conj().T])  # adjoint closed but E00 . a leaves it
    rep = qg.verify_quantum_graph(qg.QuantumGraph(s, BlockAlgebra.diagonal(3)))
    assert not rep.passed
    assert any("bimodule" in c.name for c in rep.failures())


def test_verify_checks_adjoint_closure():
    # span{E01} fails adjoint closure alone; span{E01, E10} passes every axiom
    a = np.zeros((2, 2), complex)
    a[0, 1] = 1.0
    for family, closed in (([a], False), ([a, a.conj().T], True)):
        rep = qg.verify_quantum_graph(
            qg.QuantumGraph(orthonormalize(family), BlockAlgebra.diagonal(2)))
        assert [c.name for c in rep.failures()] == ([] if closed else ["adjoint_closed"])


def test_conjugate_graph_preserves_axioms(haar):
    g = qg.complete_quantum_graph(BlockAlgebra([(2, 2)]))
    u = haar(4, seed=11)
    moved = qg.conjugate_graph(g, u)
    rep = qg.verify_quantum_graph(moved)
    assert rep.passed, "\n%s" % rep
    assert moved.S.dim == g.S.dim
    back = qg.conjugate_graph(moved, u.conj().T)
    assert back.S.equals_span(g.S)


def test_conjugate_graph_rejects_non_unitary():
    g = qg.from_classical(qg.complete(2))
    with pytest.raises(ValueError):
        qg.conjugate_graph(g, 2.0 * np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_conjugators_are_refused(bad):
    """A conjugator or a relabeling unitary with a NaN or Inf entry is not
    unitary: it raises, rather than building an algebra or a graph whose
    every residual is NaN."""
    u = np.array([[bad, 0], [0, 1]])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="conjugator is not unitary"):
        BlockAlgebra([(1, 2)], u)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="conjugating matrix is not unitary"):
        qg.conjugate_graph(qg.from_classical(qg.complete(2)), u)


def test_verify_trips_the_dense_guard_before_allocating():
    """The complement projector at dimension 65 would take 285 MB."""
    g = qg.QuantumGraph(qg.OperatorSubspace.zero(65), BlockAlgebra.diagonal(65))
    with pytest.raises(qg.SizeGuardError, match="bimodule check on dimension 65"):
        qg.verify_quantum_graph(g)
