"""The numpy kernels against the scipy constructions they replaced.

The package needs numpy only.  These tests rebuild the former scipy routes
as references: ``scipy.linalg.expm`` for the one-particle dressing and the
charge blocks of exp(i t dG(A)), ``scipy.linalg.toeplitz`` for multiplication
operators, and the ``scipy.sparse`` matrices of every dense Fock operator
at M <= 4.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm, toeplitz

from anyoncircle.anyon import (
    AnyonSpec,
    blip_multiplier,
    build_field,
    charge_prefactor,
    rotation_phases,
    rotation_rep,
)
from anyoncircle.blip import blip, standard_mollifier
from anyoncircle.cones import TestFunctionSpace as FunctionSpace, fermi_field
from anyoncircle.covering import CoveringPoint
from anyoncircle.exterior import dressing_unitary
from anyoncircle.fock import (
    ConjugateBlocks,
    FockBasis,
    car_operators,
    charge_operator,
    conjugate_blocks,
    dgamma,
    ec_normal_ordered,
    ec_route_implementer,
    gamma_multiplicative,
    implementer_exp,
    implementer_shift,
    second_quantize_diagonal,
)
from anyoncircle.modes import (
    ModeWindow,
    OneParticleOperator,
    multiplication_operator,
    sawtooth_coefficients,
    shift_operator,
)

# ------------------------------------------- the former sparse constructions


def _popcount(arr):
    return np.bitwise_count(arr).astype(np.int64)


def _ref_annihilator(basis, slot):
    masks = np.arange(basis.dim, dtype=np.int64)
    bit = np.int64(1) << slot
    src = masks[(masks & bit) != 0]
    signs = 1.0 - 2.0 * (_popcount(src & (bit - 1)) & 1)
    return sp.csr_matrix((signs.astype(complex), (src ^ bit, src)), shape=(basis.dim, basis.dim))


def _ref_car(basis):
    ops = {}
    for n in basis.window.modes:
        ann = _ref_annihilator(basis, basis.slot(int(n)))
        kind = "a" if n >= 0 else "b"
        ops[(kind, int(n))] = ann
        ops[(kind + "_dag", int(n))] = ann.conj().T.tocsr()
    return ops


def _ref_second_quantize_diagonal(eig, basis):
    masks = np.arange(basis.dim, dtype=np.int64)
    phase = np.ones(basis.dim, dtype=complex)
    for j in range(basis.window.size):
        w = eig[j] if j >= basis.window.n_minus else np.conj(eig[j])
        phase[((masks >> j) & 1).astype(bool)] *= w
    return sp.diags(phase).tocsr()


def _ref_dgamma(a, basis):
    ops = _ref_car(basis)
    psi = [ops[("a", int(n))] if n >= 0 else ops[("b_dag", int(n))] for n in basis.window.modes]
    total = -np.trace(a.minus_minus) * sp.identity(basis.dim, dtype=complex, format="csr")
    for m, psi_m in enumerate(psi):
        for n, psi_n in enumerate(psi):
            if a.matrix[m, n] != 0:
                total = total + a.matrix[m, n] * (psi_m.conj().T @ psi_n)
    return total.tocsr()


def _ref_implementer_exp(a, t, basis):
    gen = _ref_dgamma(a, basis)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for q in np.unique(basis.charges):
        idx = basis.sector_masks(int(q))
        mat[np.ix_(idx, idx)] = expm(1j * t * gen[idx][:, idx].toarray())
    return mat


def _ref_implementer_shift(basis):
    n_minus, size = basis.window.n_minus, basis.window.size
    masks = np.arange(basis.dim, dtype=np.int64)
    bit_top = np.int64(1) << (size - 1)
    bit_minus_one = np.int64(1) << (n_minus - 1)
    bit_zero = np.int64(1) << n_minus
    src1 = masks[((masks & bit_top) == 0) & ((masks & bit_minus_one) == 0)]
    amp1 = 1.0 - 2.0 * (_popcount(src1 & basis.plus_bits) & 1)
    src2 = masks[((masks & bit_minus_one) != 0) & ((masks & bit_top) == 0)]
    jw = _popcount(src2 & (bit_minus_one - 1)) & 1
    amp2 = (1.0 - 2.0 * jw) * (1.0 - 2.0 * ((_popcount(src2) - 1) & 1))
    rows = np.concatenate([(src1 << 1) | bit_zero, (src2 ^ bit_minus_one) << 1])
    return sp.coo_matrix(
        (np.concatenate([amp1, amp2]).astype(complex), (rows, np.concatenate([src1, src2]))),
        shape=(basis.dim, basis.dim),
    ).tocsr()


def _ref_compound(block):
    n = block.shape[0]
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = _popcount(masks)
    bits = (masks[:, None] >> np.arange(n)) & 1
    rows, cols, data = [masks[:1]], [masks[:1]], [np.ones(1, dtype=complex)]
    for k in range(1, n + 1):
        subsets = masks[sizes == k]
        idx = np.nonzero(bits[subsets])[1].reshape(-1, k)
        minors = np.linalg.det(block[idx[:, None, :, None], idx[None, :, None, :]])
        t, s = np.nonzero(minors)
        rows.append(subsets[t])
        cols.append(subsets[s])
        data.append(minors[t, s])
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(1 << n, 1 << n)
    )


def _ref_gamma_multiplicative(plus, minus):
    return sp.kron(_ref_compound(plus), _ref_compound(minus), format="csr")


def _ref_pair_exponential(coefficients, basis):
    ops = _ref_car(basis)
    one = sp.identity(basis.dim, dtype=complex, format="csr")
    out = one
    for (p, i_minus), c in np.ndenumerate(coefficients):
        if c != 0:
            pair = ops[("a_dag", p)] @ ops[("b_dag", i_minus - basis.window.n_minus)]
            out = out @ (one + c * pair)
    return out.tocsr()


def _ref_ec_normal_ordered(z, basis):
    left = _ref_pair_exponential(z.plus_minus, basis)
    right = _ref_pair_exponential(-z.minus_plus.conj().T, basis).conj().T
    middle = _ref_gamma_multiplicative(z.plus_plus, z.minus_minus.T)
    return (left @ middle @ right).tocsr()


def _ref_ec_route_implementer(v, basis):
    # the canonical shift: e_- is the unit vector at mode -1 and e_0 at mode 0
    ops = _ref_car(basis)
    ec = _ref_ec_normal_ordered(conjugate_blocks(v), basis)
    raw = ops[("a_dag", 0)] @ ec + ec @ ops[("b", -1)]
    vac_image = np.asarray(raw @ basis.vacuum())
    k = int(np.argmax(np.abs(vac_image)))
    return raw / (np.linalg.norm(vac_image) * vac_image[k] / abs(vac_image[k]))


def _dense(mat):
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat)


# --------------------------------------------------------------- fixtures


def _random_block(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _random_hermitian(size, seed):
    a = _random_block(np.random.default_rng(seed), size, size)
    return 0.5 * (a + a.conj().T)


def _blip_symbol(window, center=1.1, epsilon=0.5):
    return blip_multiplier(standard_mollifier(epsilon), window, center, drop_mean=False)


def _random_z(basis, seed):
    w = basis.window
    rng = np.random.default_rng(seed)
    return ConjugateBlocks(
        plus_plus=_random_block(rng, w.n_plus, w.n_plus),
        plus_minus=0.5 * _random_block(rng, w.n_plus, w.n_minus),
        minus_plus=0.5 * _random_block(rng, w.n_minus, w.n_plus),
        minus_minus=_random_block(rng, w.n_minus, w.n_minus),
    )


def _operator_pairs(cutoff):
    """(name, matrix-free operator, former sparse or dense matrix, relative tol)."""
    basis = FockBasis(ModeWindow(cutoff))
    w = basis.window
    rng = np.random.default_rng(cutoff)
    pairs = []
    ops, ref_ops = car_operators(basis), _ref_car(basis)
    for key in ops:
        pairs.append((f"car-{key[0]}{key[1]}", ops[key], ref_ops[key], 0.0))
    pairs.append(
        ("charge", charge_operator(basis), sp.diags(basis.charges.astype(complex)), 0.0)
    )
    eig = np.exp(1j * rng.uniform(-np.pi, np.pi, size=w.size))
    pairs.append((
        "second-quantize-diagonal",
        second_quantize_diagonal(OneParticleOperator(w, np.diag(eig)), basis),
        _ref_second_quantize_diagonal(eig, basis),
        0.0,
    ))
    a = OneParticleOperator(w, _random_block(rng, w.size, w.size))
    pairs.append(("dgamma", dgamma(a, basis), _ref_dgamma(a, basis), 1e-14))
    shift = implementer_shift(shift_operator(w), basis)
    ref_shift = _ref_implementer_shift(basis)
    pairs.append(("implementer-shift", shift, ref_shift, 0.0))
    plus, minus = _random_block(rng, w.n_plus, w.n_plus), _random_block(rng, w.n_minus, w.n_minus)
    pairs.append((
        "gamma-multiplicative",
        gamma_multiplicative(plus, minus, basis),
        _ref_gamma_multiplicative(plus, minus),
        1e-13,
    ))
    z = _random_z(basis, 10 + cutoff)
    pairs.append(
        ("ec-normal-ordered", ec_normal_ordered(z, basis), _ref_ec_normal_ordered(z, basis), 1e-13)
    )
    v = shift_operator(w)
    pairs.append(
        ("ec-route", ec_route_implementer(v, basis), _ref_ec_route_implementer(v, basis), 1e-13)
    )
    spin, omega = 0.25, 0.61 + 2 * np.pi
    phases = rotation_phases(omega, spin, basis.charges.astype(float), basis.theta)
    pairs.append(("rotation-rep", rotation_rep(omega, spin, basis), sp.diags(phases), 0.0))
    charge = charge_operator(basis)
    ref_charge = sp.diags(basis.charges.astype(complex))
    pairs.append((
        "composition",
        (0.5 - 1j) * (shift @ charge) - shift.dagger() + charge @ shift,
        (0.5 - 1j) * (ref_shift @ ref_charge) - ref_shift.conj().T + ref_charge @ ref_shift,
        1e-15,
    ))
    return basis, pairs


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_operators_match_the_former_sparse_matrices(cutoff):
    _, pairs = _operator_pairs(cutoff)
    for name, op, ref, tol in pairs:
        expected = _dense(ref)
        got = op.to_dense()
        assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected)), name
        # the adjoint map is the conjugate transpose
        assert np.max(np.abs(op.dagger().to_dense() - expected.conj().T)) <= tol * np.max(
            np.abs(expected)
        ), name


@pytest.mark.parametrize("cutoff", [2, 3])
def test_sector_scan_matches_the_sparse_pattern(cutoff):
    basis, pairs = _operator_pairs(cutoff)
    for name, op, ref, _ in pairs:
        coo = sp.coo_matrix(ref)
        keep = np.abs(coo.data) > 1e-12
        charges = basis.charges.astype(int)
        expected = set(np.unique(charges[coo.row[keep]] - charges[coo.col[keep]]).tolist())
        assert op.sector_scan(tol=1e-12) == expected, name


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_adjoint_identity_on_random_blocks(cutoff):
    # <y, A x> = <A* y, x> for column blocks
    basis, pairs = _operator_pairs(cutoff)
    rng = np.random.default_rng(100 + cutoff)
    x = _random_block(rng, basis.dim, 3)
    y = _random_block(rng, basis.dim, 3)
    for name, op, _, _ in pairs:
        lhs = np.vdot(y, op.apply(x))
        rhs = np.vdot(op.dagger().apply(y), x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), name
        # a single vector and a block column give the same image
        column = op.apply(x)[:, 1]
        assert np.max(np.abs(op.apply(x[:, 1]) - column)) <= 1e-13 * np.max(np.abs(column)), name


@pytest.mark.parametrize("cutoff", [3, 4])
def test_implementer_exp_matches_blockwise_expm(cutoff):
    basis = FockBasis(ModeWindow(cutoff))
    w = basis.window
    for symbol in (_blip_symbol(w), _random_hermitian(w.size, cutoff)):
        a = OneParticleOperator(w, symbol)
        for t in (-1.0, 0.7, -np.sqrt(2.0)):
            got = implementer_exp(a, t, basis).to_dense()
            assert np.max(np.abs(got - _ref_implementer_exp(a, t, basis))) < 1e-12


def test_build_field_matches_the_former_sparse_product():
    w = ModeWindow(3)
    basis = FockBasis(w)
    for spin in (0.25, 0.5, -0.5):
        spec = AnyonSpec(spin, CoveringPoint(0.8 + 2 * np.pi), standard_mollifier(0.6))
        omega = spec.omega.omega
        pre = sp.diags(charge_prefactor(spin, omega, basis.charges))
        u0q = sp.diags(np.exp(-1j * omega * basis.charges.astype(float)))
        if spec.coupling == 0.0:
            dressing = np.eye(basis.dim)
        else:
            symbol = OneParticleOperator(w, _blip_symbol(w, spec.omega.base, 0.6))
            dressing = _ref_implementer_exp(symbol, spec.coupling, basis)
        expected = pre @ (_ref_implementer_shift(basis) @ (u0q @ dressing))
        got = build_field(spec, w).operator.to_dense()
        assert np.max(np.abs(got - _dense(expected))) < 1e-12


# ------------------------------------------------------ one-particle kernels


@pytest.mark.parametrize("cutoff", [4, 8, 16, 64])
def test_dressing_unitary_matches_expm(cutoff):
    w = ModeWindow(cutoff)
    symbols = [
        blip_multiplier(standard_mollifier(0.5), w, 1.3),
        _blip_symbol(w, 4.0, 0.3),
        _random_hermitian(w.size, cutoff),
    ]
    # the couplings of spins 0, 1/4 and -1/2 and their adjoints
    for symbol in symbols:
        for t in (-1.0, 1.0, -np.sqrt(0.5), -np.sqrt(2.0), np.sqrt(2.0)):
            scalar, unitary = dressing_unitary(symbol, t, w)
            assert np.max(np.abs(unitary - expm(1j * t * symbol))) < 1e-13
            assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(w.size))) < 1e-14
            minus_trace = np.trace(symbol[:cutoff, :cutoff])
            assert scalar == complex(np.exp(-1j * t * minus_trace))


@pytest.mark.parametrize("cutoff", [1, 3, 8, 40])
def test_multiplication_operator_is_the_former_toeplitz(cutoff):
    w = ModeWindow(cutoff)
    symbols = (
        blip(standard_mollifier(0.4), w).periodic.shifted(1.1),
        sawtooth_coefficients(2 * cutoff + 3),
    )
    for f in symbols:
        k0 = f.n_max
        first_col = f.coefficients[k0 : k0 + w.size] / np.sqrt(2 * np.pi)
        first_row = f.coefficients[k0 - w.size + 1 : k0 + 1][::-1] / np.sqrt(2 * np.pi)
        assert np.array_equal(multiplication_operator(f, w).matrix, toeplitz(first_col, first_row))


def test_cone_ladders_match_the_former_sparse_fields():
    gram = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 1.5]])
    polys = [
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0.2, 0.2], [1.2, 0.2], [0.2, 1.2]]),
        np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5]]),
    ]
    space = FunctionSpace(["f1", "f2", "f3"], gram, polys)
    dim = space.fock_dim
    masks = np.arange(dim, dtype=np.int64)
    for i in range(space.size):
        creator = sp.csr_matrix((dim, dim), dtype=complex)
        for k in range(space.size):
            bit = np.int64(1) << k
            src = masks[(masks & bit) != 0]
            signs = 1.0 - 2.0 * (_popcount(src & (bit - 1)) & 1)
            ladder = sp.csr_matrix((signs.astype(complex), (src ^ bit, src)), shape=(dim, dim))
            creator = creator + space._mode_vectors[k, i] * ladder.conj().T
        expected = (creator + creator.conj().T).toarray()
        assert np.max(np.abs(fermi_field(i, space) - expected)) < 1e-15
