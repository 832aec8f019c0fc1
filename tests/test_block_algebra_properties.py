"""Properties of BlockAlgebra over generated standard forms.

An algebra has 1 to 3 blocks (n_r, k_r) on an ambient space of dimension
at most 8 and a conjugator that is either None or a seeded Haar unitary.
Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same algebras.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from quantumgraphs.opspace import orthonormalize
from quantumgraphs.qgraph import BlockAlgebra

FIXED = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def haar(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def block_lists(draw, max_n=8):
    """1 to 3 blocks (n_r, k_r) with sum n_r k_r <= max_n."""
    blocks = []
    room = max_n
    for _ in range(draw(st.integers(1, 3))):
        if room == 0:
            break
        mult = draw(st.integers(1, room))
        size = draw(st.integers(1, room // mult))
        blocks.append((mult, size))
        room -= mult * size
    return blocks


@st.composite
def algebras(draw, max_n=8):
    blocks = draw(block_lists(max_n))
    n = sum(m * k for m, k in blocks)
    seed = draw(st.none() | st.integers(0, 2 ** 16))
    return BlockAlgebra(blocks, None if seed is None else haar(n, seed))


@FIXED
@given(algebras())
def test_double_commutant_returns_blocks_and_conjugator(m):
    back = m.commutant().commutant()
    assert back.blocks == m.blocks
    if m.conjugator is None:
        assert back.conjugator is None
    else:
        assert np.array_equal(back.conjugator, m.conjugator)


@FIXED
@given(algebras())
def test_basis_is_orthonormal_with_dim_sum_of_squares(m):
    b = m.basis()
    assert b.dim == m.dim == sum(k * k for _, k in m.blocks)
    flat = b.basis.reshape(b.dim, -1)
    gram = flat @ flat.conj().T
    assert np.max(np.abs(gram - np.eye(m.dim))) <= 1e-12


@FIXED
@given(algebras())
def test_commutant_units_commute_with_algebra_units(m):
    a = m.basis().basis[:, None]
    c = m.commutant().basis().basis[None]
    assert np.max(np.abs(a @ c - c @ a)) <= 1e-12


@FIXED
@given(algebras(max_n=4), algebras(max_n=4))
def test_tensor_is_the_span_of_kron_products(m1, m2):
    t = m1.tensor(m2)
    assert t.blocks == tuple((n1 * n2, k1 * k2) for n1, k1 in m1.blocks
                             for n2, k2 in m2.blocks)
    n = m1.ambient_dim * m2.ambient_dim
    krons = np.kron(m1.basis().basis[:, None], m2.basis().basis[None])
    assert t.basis().equals_span(orthonormalize(krons.reshape(-1, n, n)))
