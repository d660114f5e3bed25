import numpy as np
import pytest

from qsysid import (
    ATOM_EXCITED,
    ATOM_GROUND,
    InvalidParametersError,
    ModelParams,
    basis_index,
    build_model,
    effective_hamiltonian,
    ground_vacuum,
)

TWO_PI = 2.0 * np.pi


def test_dimension_counts_photon_and_atom_levels():
    model = build_model(ModelParams(g0=5.0, gamma_perp=1.0, kappa=1.0, epsilon=0.5, n_trunc=2))
    assert model.dim == 6
    big = build_model(ModelParams(g0=57.0, gamma_perp=2.5, kappa=30.0, epsilon=44.3, n_trunc=30))
    assert big.dim == 62


def test_basis_index_interleaves_atom_fastest():
    assert basis_index(0, ATOM_GROUND) == 0
    assert basis_index(0, ATOM_EXCITED) == 1
    assert basis_index(3, ATOM_GROUND) == 6
    assert basis_index(3, ATOM_EXCITED) == 7


def test_annihilation_operator_matrix_elements(small_model):
    a = small_model.op_a
    for n in range(1, 4):
        for s in (ATOM_GROUND, ATOM_EXCITED):
            row = basis_index(n - 1, s)
            col = basis_index(n, s)
            assert a[row, col] == pytest.approx(np.sqrt(n))
    # number operator is diagonal with the photon count
    num = a.conj().T @ a
    diag = np.diag(num).real
    expected = np.array([n for n in range(4) for _ in range(2)], dtype=float)
    np.testing.assert_allclose(diag, expected, atol=1e-12)
    np.testing.assert_allclose(num - np.diag(diag), 0.0, atol=1e-12)


def test_lowering_operator_acts_only_on_atom(small_model):
    sm = small_model.op_sigma_minus
    nonzero = np.argwhere(np.abs(sm) > 0)
    assert len(nonzero) == 4  # one per photon sector
    for row, col in nonzero:
        assert row == col - 1
        assert col % 2 == 1  # excited -> ground within the same photon number
        assert sm[row, col] == pytest.approx(1.0)


def test_collapse_operators_carry_angular_rates(small_model):
    p = small_model.params
    np.testing.assert_allclose(
        small_model.c0, np.sqrt(2.0 * TWO_PI * p.gamma_perp) * small_model.op_sigma_minus
    )
    np.testing.assert_allclose(
        small_model.c1, np.sqrt(2.0 * TWO_PI * p.kappa) * small_model.op_a
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_hamiltonian_antihermitian_part_matches_decay(seed):
    rng = np.random.default_rng(seed)
    params = ModelParams(
        g0=float(rng.uniform(1, 50)),
        gamma_perp=float(rng.uniform(0.1, 5)),
        kappa=float(rng.uniform(0.5, 40)),
        epsilon=float(rng.uniform(0, 50)),
        n_trunc=int(rng.integers(1, 8)),
    )
    model = build_model(params)
    h = effective_hamiltonian(model, float(rng.uniform(0, params.g0))).matrix
    decay = model.c0.conj().T @ model.c0 + model.c1.conj().T @ model.c1
    np.testing.assert_allclose(h - h.conj().T, -1j * decay, atol=1e-12)


def test_coupling_matrix_element(cavity_model):
    h = effective_hamiltonian(cavity_model, 45.0).matrix
    row = basis_index(0, ATOM_EXCITED)
    col = basis_index(1, ATOM_GROUND)
    assert h[row, col] == pytest.approx(1j * TWO_PI * 45.0)
    assert h[col, row] == pytest.approx(-1j * TWO_PI * 45.0)


def test_drive_matrix_element(small_model):
    eps_w = TWO_PI * small_model.params.epsilon
    h = effective_hamiltonian(small_model, 0.0).matrix
    row = basis_index(1, ATOM_GROUND)
    col = basis_index(0, ATOM_GROUND)
    assert h[row, col] == pytest.approx(-1j * eps_w)
    assert h[col, row] == pytest.approx(1j * eps_w)


def test_effective_hamiltonian_rejects_bad_coupling(small_model):
    with pytest.raises(InvalidParametersError):
        effective_hamiltonian(small_model, -1.0)
    with pytest.raises(InvalidParametersError):
        effective_hamiltonian(small_model, float("nan"))
    with pytest.raises(InvalidParametersError):  # a bool is no coupling, though it casts to 1.0
        effective_hamiltonian(small_model, True)


def test_ground_vacuum_is_basis_state(small_model):
    psi = ground_vacuum(small_model)
    assert psi.dtype == np.float64
    assert psi[basis_index(0, ATOM_GROUND)] == 1.0
    assert np.count_nonzero(psi) == 1


def test_model_arrays_are_read_only(small_model):
    for arr in (small_model.op_a, small_model.op_sigma_minus, small_model.c0, small_model.c1):
        assert arr.dtype == np.float64  # every operator is real in the number basis
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(g0=-1.0, gamma_perp=1.0, kappa=1.0, epsilon=0.0),
        dict(g0=1.0, gamma_perp=-0.1, kappa=1.0, epsilon=0.0),
        dict(g0=1.0, gamma_perp=0.0, kappa=0.0, epsilon=0.0),
        dict(g0=1.0, gamma_perp=1.0, kappa=1.0, epsilon=-2.0),
        dict(g0=1.0, gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=0),
        dict(g0=float("inf"), gamma_perp=1.0, kappa=1.0, epsilon=0.0),
        dict(g0=1.0, gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=2.5),
        dict(g0=1.0, gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=True),
        dict(g0="57", gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=3),
        dict(g0=True, gamma_perp=2.5, kappa=30.0, epsilon=44.3, n_trunc=3),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(InvalidParametersError):
        ModelParams(**kwargs)


def test_params_take_numpy_integers_and_name_the_field_at_fault():
    params = ModelParams(g0=1.0, gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=np.int64(3))
    assert type(params.n_trunc) is int
    assert params == ModelParams(g0=1.0, gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=3)
    for kwargs, field in [
        (dict(g0=1.0, gamma_perp=1.0, kappa=1.0, epsilon=-2.0), "epsilon"),
        (dict(g0=1.0, gamma_perp=0.0, kappa=0.0, epsilon=0.0), "kappa"),
        (dict(g0=1.0, gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=2.5), "n_trunc"),
        (dict(g0=10**400, gamma_perp=1.0, kappa=1.0, epsilon=0.0), "g0"),  # past the float range
        (dict(g0="57", gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=3), "g0"),  # no number
    ]:
        with pytest.raises(InvalidParametersError) as err:
            ModelParams(**kwargs)
        assert err.value.field == field
