"""Properties of OperatorSubspace.max_residual over generated stacks.

The batched residual must match a per-matrix reference computed with
np.linalg.norm, for stacks with any leading axes, empty stacks, the zero
subspace and non-finite entries, and must never write to its argument.
Subspaces are dense random ones and sparse ones (matrix units on random
cells and Kronecker products of two such), whose support leaves out
coordinates, so that the residual off the support is exercised too.
Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same stacks; two fixed examples, one
coordinate space (k = u: max_residual masks) and one with a two-cell element
(the projection runs), are checked whatever hypothesis draws.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from quantumgraphs.opspace import OperatorSubspace, orthonormalize
from test_opspace import randc

FIXED = settings(max_examples=120, derandomize=True, database=None, deadline=None)


def reference(space, stack):
    """max ||x - sum_e <x, e> e|| / max(1, ||x||) over the matrices x of the
    stack, one matrix at a time; 0.0 for an empty stack."""
    n = space.ambient_dim
    worst = 0.0
    for x in np.asarray(stack).reshape(-1, n, n):
        proj = sum((np.vdot(e, x) * e for e in space.basis), np.zeros((n, n)))
        r = np.linalg.norm(x - proj) / max(1.0, np.linalg.norm(x))
        worst = r if np.isnan(r) else max(worst, r)
    return worst


def units(draw, rng, n):
    """Matrix units with random phases on distinct random cells of M_n; no
    cells give the zero subspace."""
    cells = draw(st.lists(st.integers(0, n * n - 1), unique=True, max_size=n * n))
    basis = np.zeros((len(cells), n * n), dtype=np.complex128)
    basis[np.arange(len(cells)), cells] = np.exp(2j * np.pi * rng.random(len(cells)))
    return OperatorSubspace(n, basis.reshape(-1, n, n))


@st.composite
def spaces(draw, rng):
    """A subspace of M_n: spanned by k random matrices (k = 0 is the zero
    subspace), by matrix units, or the tensor product of two unit spaces."""
    kind = draw(st.sampled_from(["dense", "units", "kron"]))
    if kind == "kron":
        return units(draw, rng, draw(st.integers(1, 2))).tensor(
            units(draw, rng, draw(st.integers(1, 2))))
    n = draw(st.integers(1, 4 if kind == "units" else 3))
    if kind == "units":
        return units(draw, rng, n)
    return orthonormalize(list(randc(rng, draw(st.integers(0, n * n)), n, n)), ambient_dim=n)


def support(space):
    """The flat coordinates where some basis element is nonzero."""
    return np.flatnonzero(space.basis.reshape(space.dim, space.ambient_dim ** 2).any(axis=0))


@st.composite
def cases(draw):
    """(space, stack): a subspace from ``spaces`` and a stack with 0 to 2
    leading axes of length 0 to 3, scaled so that both branches of
    max(1, ||x||) occur and partly drawn from the subspace so that
    residuals near 0 occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    space = draw(spaces(rng))
    n = space.ambient_dim
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    stack = randc(rng, *lead, n, n) * draw(st.sampled_from([1e-3, 0.3, 1.0, 40.0]))
    if space.dim and stack.size and draw(st.booleans()):
        flat = stack.reshape(-1, n, n)
        inside = randc(rng, len(flat), space.dim) @ space.basis.reshape(space.dim, -1)
        flat[::2] = inside.reshape(-1, n, n)[::2]
    return space, stack


def _fixed(n, cells, two_cell=()):
    """Phased matrix units on ``cells`` of M_n, plus one element spread
    evenly over ``two_cell``, and a (2, 3) stack of which the first row
    lies in their span."""
    rng = np.random.default_rng(len(cells))
    basis = np.zeros((len(cells) + bool(two_cell), n * n), dtype=np.complex128)
    basis[np.arange(len(cells)), cells] = np.exp(2j * np.pi * rng.random(len(cells)))
    if two_cell:
        basis[-1, list(two_cell)] = 1 / np.sqrt(len(two_cell))
    stack = randc(rng, 2, 3, n, n)
    stack[0] = (randc(rng, 3, len(basis)) @ basis).reshape(3, n, n)
    return OperatorSubspace(n, basis.reshape(-1, n, n)), stack


COORDINATE = _fixed(3, [0, 2, 4, 6, 7])
# k = 3, u = 4 of 16: six matrices project over the support only
TWO_CELL = _fixed(4, [0, 5], two_cell=(1, 6))


def test_the_fixed_examples_take_both_routes():
    assert COORDINATE[0]._coordinate and not TWO_CELL[0]._coordinate


@FIXED
@given(cases())
@example(COORDINATE)
@example(TWO_CELL)
def test_max_residual_matches_the_per_matrix_reference(case):
    space, stack = case
    got = space.max_residual(stack)
    assert abs(got - reference(space, stack)) <= 1e-12
    if stack.size == 0:
        assert got == 0.0


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, 1j * np.inf])


@FIXED
@given(cases(), NON_FINITE, st.integers(0, 10 ** 6), st.booleans())
@example(COORDINATE, np.inf, 0, True)  # ||x|| is Inf: the ratio alone is 0
@example(TWO_CELL, np.inf, 0, True)
def test_a_non_finite_entry_gives_a_non_finite_residual(case, bad, where, on_support):
    """The entry goes on the basis's support or off it, where it exists."""
    space, stack = case
    if stack.size == 0:
        return
    n2 = space.ambient_dim ** 2
    on = support(space)
    cells = on if on_support else np.setdiff1d(np.arange(n2), on)
    cells = cells if len(cells) else np.arange(n2)
    flat = stack.reshape(-1, n2)
    flat[where % len(flat), cells[where % len(cells)]] = bad
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(space.max_residual(stack))
        assert not np.isfinite(reference(space, stack))


@FIXED
@given(cases(), NON_FINITE, st.integers(0, 10 ** 6))
@example(COORDINATE, np.nan, 0)  # in place of unit 0's entry: still k = u
@example(TWO_CELL, np.nan, 0)
def test_a_non_finite_basis_entry_gives_a_non_finite_residual(case, bad, where):
    """The entry goes into one basis element, off the support of the others
    where that leaves a cell, so that it alone puts its cell on U."""
    space, stack = case
    if stack.size == 0 or space.dim == 0:
        return
    n2 = space.ambient_dim ** 2
    basis = space.basis.reshape(space.dim, n2).copy()
    j = where % space.dim
    others = np.delete(basis, j, axis=0).any(axis=0)
    cells = np.flatnonzero(~others) if not others.all() else np.arange(n2)
    basis[j, cells[where % len(cells)]] = bad
    broken = OperatorSubspace(space.ambient_dim, basis.reshape(space.basis.shape))
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(broken.max_residual(stack))
        assert not np.isfinite(reference(broken, stack))


def test_max_residual_never_writes_to_its_argument():
    rng = np.random.default_rng(3)
    space = orthonormalize(list(randc(rng, 4, 3, 3)))
    other = orthonormalize(list(randc(rng, 2, 3, 3)))
    writable = randc(rng, 2, 5, 3, 3)
    strided = writable.transpose(1, 0, 3, 2)  # not C-contiguous
    for stack in (writable, strided, writable[0, 1]):
        before = stack.copy()
        space.max_residual(stack)
        OperatorSubspace.zero(3).max_residual(stack)
        assert np.array_equal(stack, before, equal_nan=True)
    # a subspace's basis is read-only and passed straight in by the verifiers
    for s, t in ((space, other), (other, space), (space, space)):
        before = t.basis.copy()
        s.max_residual(t.basis)
        assert not t.basis.flags.writeable
        assert np.array_equal(t.basis, before)
