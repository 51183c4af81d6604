"""Tests for the statevector engine: label writing, controlled rotations,
post-selection, and sampling primitives."""

import math

import numpy as np
import pytest

from qpcasim.errors import (
    ContractViolationError,
    DegenerateSpectrumError,
    InvalidInputError,
    InvalidRotationError,
    VanishingSuccessError,
)
from qpcasim.pca_oracle import DataMatrix, svd_decompose
from qpcasim.qram_store import build_tree, prepare_data_state, prepare_row_state
from qpcasim.statevector import StateVector
from qpcasim.sv_engine import (
    LABEL_MODE_IDEAL,
    LABEL_MODE_QUANTIZED,
    PHASE_SCALE,
    PhaseConfig,
    RhoSpec,
    amplification_repetitions,
    apply_cr_beta,
    apply_cu_lambda,
    check_label_distinctness,
    decode_label,
    eigen_labels,
    inverse_phase_estimate,
    measure_register,
    phase_estimate,
    postselect,
    project_anchor,
    swap_test,
)

from oracles import reference_token_circuit


def basis(layout, **values):
    shape = tuple(1 << q for _, q in layout)
    amps = np.zeros(shape)
    amps[tuple(values[name] for name, _ in layout)] = 1.0
    return StateVector.from_amplitudes(layout, amps)


# -- statevector plumbing ----------------------------------------------------


def test_statevector_basics():
    state = StateVector.zero([("a", 2), ("b", 1)])
    assert state.layout() == (("a", 2), ("b", 1))
    assert state.register("a").dim == 4
    assert state.norm() == pytest.approx(1.0)
    # bit 0 is the most significant bit of its register
    flipped = state.apply_x("a", 0)
    assert flipped.basis_amplitude({"a": 2, "b": 0}) == pytest.approx(1.0)
    flipped = state.apply_x("a", 1)
    assert flipped.basis_amplitude({"a": 1, "b": 0}) == pytest.approx(1.0)


def test_statevector_mcx_truth_table():
    layout = [("a", 2), ("b", 1)]
    for a_val in range(4):
        state = basis(layout, a=a_val, b=0)
        out = state.apply_mcx([("a", 0), ("a", 1)], ("b", 0))
        want_b = 1 if a_val == 3 else 0
        assert out.basis_amplitude({"a": a_val, "b": want_b}) == pytest.approx(1.0)


def test_statevector_project_and_remove():
    layout = [("a", 1), ("b", 1)]
    amps = np.array([[0.6, 0.0], [0.0, 0.8]])
    state = StateVector.from_amplitudes(layout, amps)
    kept, prob = state.project_and_remove({"b": 1})
    assert prob == pytest.approx(0.64, abs=1e-12)
    assert kept.basis_amplitude({"a": 1}) == pytest.approx(1.0)


def test_statevector_remove_register_guard():
    layout = [("a", 1), ("b", 1)]
    amps = np.array([[0.6, 0.0], [0.0, 0.8]])
    state = StateVector.from_amplitudes(layout, amps)
    with pytest.raises(ContractViolationError):
        state.remove_register("b")
    clean = StateVector.zero([("a", 1)]).append_register("b", 1)
    assert clean.remove_register("b").layout() == (("a", 1),)


# -- eigenvalue labels -------------------------------------------------------


def test_labels_dyadic_spectrum():
    rho = RhoSpec(eigenvalues=np.array([0.75, 0.25]), eigenvectors=np.eye(2))
    cfg = PhaseConfig(bits=3, label_mode=LABEL_MODE_QUANTIZED)
    np.testing.assert_array_equal(eigen_labels(rho, cfg), [3, 1])
    # Dyadic eigenvalues decode exactly.
    assert decode_label(3, cfg) == pytest.approx(0.75)
    assert decode_label(1, cfg) == pytest.approx(0.25)


def test_labels_rank_one_no_wraparound():
    rho = RhoSpec(eigenvalues=np.array([1.0]), eigenvectors=np.eye(1))
    cfg = PhaseConfig(bits=1, label_mode=LABEL_MODE_QUANTIZED)
    # The half-phase encoding keeps eigenvalue 1 inside a 1-bit register.
    np.testing.assert_array_equal(eigen_labels(rho, cfg), [1])
    assert PHASE_SCALE == 0.5


def test_labels_ideal_mode_is_positional():
    rho = RhoSpec(eigenvalues=np.array([0.6, 0.3, 0.1]), eigenvectors=np.eye(3))
    cfg = PhaseConfig(bits=2, label_mode=LABEL_MODE_IDEAL)
    np.testing.assert_array_equal(eigen_labels(rho, cfg), [1, 2, 3])
    assert cfg.register_width(3) == 2


def test_label_collision_detected():
    rho = RhoSpec(eigenvalues=np.array([0.5, 0.5]), eigenvectors=np.eye(2))
    cfg = PhaseConfig(bits=2, label_mode=LABEL_MODE_QUANTIZED)
    with pytest.raises(DegenerateSpectrumError):
        check_label_distinctness(rho, cfg, top=2)
    # One component alone still shares its label with the tail component,
    # whose variance would receive its token.
    with pytest.raises(DegenerateSpectrumError) as info:
        check_label_distinctness(rho, cfg, top=1)
    assert info.value.leaked_tail_mass == pytest.approx(0.5)
    # A near-degenerate pair collides at coarse width and separates with
    # more bits; a truly degenerate pair never separates.
    close = RhoSpec(eigenvalues=np.array([0.52, 0.48]), eigenvectors=np.eye(2))
    with pytest.raises(DegenerateSpectrumError):
        check_label_distinctness(close, cfg, top=2)
    check_label_distinctness(close, PhaseConfig(bits=6), top=2)
    with pytest.raises(DegenerateSpectrumError):
        check_label_distinctness(rho, PhaseConfig(bits=12), top=2)
    assert PhaseConfig(bits=6).eigenvalue_resolution == pytest.approx(2.0 ** -5)


def test_label_zero_and_tail_collisions_detected():
    # The 6-bit labels of this spectrum are [31, 1, 0, 0]. Keeping three
    # components gives the third label 0, which an unwritten register also
    # holds, and the tail component shares it.
    lam = np.array([0.97, 0.02, 0.008, 0.002])
    rho = RhoSpec(eigenvalues=lam, eigenvectors=np.eye(4))
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    np.testing.assert_array_equal(eigen_labels(rho, cfg), [31, 1, 0, 0])
    with pytest.raises(DegenerateSpectrumError) as info:
        check_label_distinctness(rho, cfg, top=3)
    assert info.value.leaked_tail_mass == pytest.approx(0.002)
    assert info.value.payload()["leaked_tail_mass"] == pytest.approx(0.002)
    check_label_distinctness(rho, cfg, top=2)
    # A kept label of 0 is refused even with no tail component to share it.
    full = RhoSpec(eigenvalues=np.array([0.97, 0.02, 0.01]), eigenvectors=np.eye(3))
    with pytest.raises(DegenerateSpectrumError) as info:
        check_label_distinctness(full, cfg, top=3)
    assert info.value.leaked_tail_mass == 0.0
    # Ideal labels are positional, never 0 and never shared.
    check_label_distinctness(rho, PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL), top=1)


# -- label writing (phase estimation stand-in) -------------------------------


def _labeled_state(data, cfg):
    model = svd_decompose(data, 1.0, 0)
    rho = RhoSpec.from_model(model)
    tree = build_tree(data)
    state = prepare_data_state(tree).append_register("eigen", cfg.register_width(rho.dim))
    return model, rho, tree, phase_estimate(rho, cfg, state)


def test_phase_estimate_matches_schmidt_oracle():
    rng = np.random.default_rng(41)
    data = DataMatrix(rng.standard_normal((4, 4)))
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    model, rho, tree, state = _labeled_state(data, cfg)
    labels = eigen_labels(rho, cfg)
    # Oracle: sum_j sqrt(lambda_j) |u_j>|v_j>|label_j>, built term by term.
    table = np.zeros((4, 4, 1 << cfg.bits))
    for j in range(4):
        amp = model.singular_values[j] / data.frobenius_norm
        table[:, :, labels[j]] += amp * np.outer(model.left_vectors[:, j], model.right_vectors[:, j])
    for i in range(4):
        for f in range(4):
            for e in np.unique(labels):
                got = state.basis_amplitude({"row": i, "feature": f, "eigen": int(e)})
                assert got == pytest.approx(table[i, f, int(e)], abs=1e-10)


def test_phase_estimate_eigen_marginal_is_spectrum():
    rng = np.random.default_rng(43)
    data = DataMatrix(rng.standard_normal((8, 4)))
    cfg = PhaseConfig(bits=8, label_mode=LABEL_MODE_QUANTIZED)
    model, rho, tree, state = _labeled_state(data, cfg)
    labels = eigen_labels(rho, cfg)
    marginal = state.probabilities("eigen")
    for j, lam in enumerate(rho.eigenvalues):
        assert marginal[int(labels[j])] == pytest.approx(lam, abs=1e-10)


def test_phase_estimate_roundtrip_is_identity():
    rng = np.random.default_rng(47)
    data = DataMatrix(rng.standard_normal((4, 4)))
    cfg = PhaseConfig(bits=5, label_mode=LABEL_MODE_QUANTIZED)
    model, rho, tree, labeled = _labeled_state(data, cfg)
    original = prepare_data_state(build_tree(data)).append_register("eigen", cfg.bits)
    undone = inverse_phase_estimate(rho, cfg, labeled)
    assert undone.fidelity(original) >= 1.0 - 1e-10


def test_phase_estimate_requires_clean_register():
    rng = np.random.default_rng(53)
    data = DataMatrix(rng.standard_normal((4, 4)))
    cfg = PhaseConfig(bits=5, label_mode=LABEL_MODE_QUANTIZED)
    _, rho, _, labeled = _labeled_state(data, cfg)
    with pytest.raises(ContractViolationError):
        phase_estimate(rho, cfg, labeled)


def test_phase_estimate_register_too_narrow():
    rho = RhoSpec(eigenvalues=np.array([0.75, 0.25]), eigenvectors=np.eye(2))
    cfg = PhaseConfig(bits=3, label_mode=LABEL_MODE_QUANTIZED)
    state = StateVector.zero([("feature", 1), ("eigen", 1)])  # label 3 needs 2 bits
    with pytest.raises(InvalidInputError):
        phase_estimate(rho, cfg, state)


# -- component token writes --------------------------------------------------


def test_token_write_basic():
    layout = [("eigen", 2), ("index", 1)]
    state = basis(layout, eigen=2, index=0)
    out = apply_cu_lambda(state, [(2, 1)])
    assert out.basis_amplitude({"eigen": 2, "index": 1}) == pytest.approx(1.0)
    # A label with no assigned token passes through untouched.
    other = apply_cu_lambda(basis(layout, eigen=1, index=0), [(2, 1)])
    assert other.basis_amplitude({"eigen": 1, "index": 0}) == pytest.approx(1.0)


def test_token_write_rejects_bad_maps():
    layout = [("eigen", 2), ("index", 2)]
    state = basis(layout, eigen=0, index=0)
    with pytest.raises(DegenerateSpectrumError):
        apply_cu_lambda(state, [(3, 1), (3, 2)])  # one label, two tokens
    with pytest.raises(InvalidInputError):
        apply_cu_lambda(state, [(4, 1)])  # label outside the register
    with pytest.raises(InvalidInputError):
        apply_cu_lambda(state, [(3, 0)])  # token 0 is reserved
    with pytest.raises(InvalidInputError):
        apply_cu_lambda(state, [(3, 4)])  # token outside the register
    dirty = basis(layout, eigen=0, index=2)
    with pytest.raises(ContractViolationError):
        apply_cu_lambda(dirty, [(3, 1)])


def test_token_write_matches_gate_circuit_exhaustively():
    # Every computational basis input, compared against an explicit
    # X-conjugated multi-controlled-NOT construction.
    layout = [("eigen", 3), ("index", 2)]
    labels = [(6, 1), (2, 2), (5, 3)]
    for e in range(8):
        for i in range(4):
            state = basis(layout, eigen=e, index=i)
            got = apply_cu_lambda(state, labels, strict=False)
            vec = np.zeros(32)
            vec[e * 4 + i] = 1.0
            want = reference_token_circuit(vec, 3, 2, labels)
            flat = got.amplitudes.reshape(-1).real
            np.testing.assert_allclose(flat, want, atol=1e-12)


# -- anchor-coefficient rotations ---------------------------------------------


def test_rotation_saturates_at_unit_sine():
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    state = basis([("index", 2)], index=1)
    out = apply_cr_beta(state, np.array([inv_sqrt2, inv_sqrt2]), inv_sqrt2)
    # C / beta_hat = 1: the ancilla lands exactly on |1>.
    assert out.basis_amplitude({"index": 1, "ancilla": 1}) == pytest.approx(1.0, abs=1e-12)


def test_rotation_half_constant():
    state = basis([("index", 1)], index=1)
    out = apply_cr_beta(state, np.array([1.0]), 0.5)
    assert out.layout() == (("index", 1), ("ancilla", 1))
    assert out.basis_amplitude({"index": 1, "ancilla": 0}) == pytest.approx(np.sqrt(3.0) / 2.0)
    assert out.basis_amplitude({"index": 1, "ancilla": 1}) == pytest.approx(0.5)


def test_rotation_skips_token_zero():
    state = basis([("index", 1)], index=0)
    out = apply_cr_beta(state, np.array([1.0]), 1.0)
    assert out.basis_amplitude({"index": 0, "ancilla": 0}) == pytest.approx(1.0)


def _per_token_cr_beta(state, beta_hat, rotation_constant):
    """The rotation as one 2 x 2 matrix per token, applied slice by slice."""
    rotations = {}
    for j, bj in enumerate(beta_hat, start=1):
        s = min(rotation_constant / float(bj), 1.0)
        q = math.sqrt(max(1.0 - s * s, 0.0))
        rotations[j] = np.array([[q, -s], [s, q]])
    return state.apply_controlled_unitary("index", "ancilla", rotations)


@pytest.mark.parametrize(
    "layout",
    [[("index", 3)], [("row", 2), ("index", 3)]],
)
def test_rotation_matches_the_per_token_loop(layout):
    # Five tokens on a 3-qubit index register: values 6 and 7 are padding
    # and carry amplitude, and must pass through like value 0.
    shape = tuple(1 << q for _, q in layout)
    rng = np.random.default_rng(len(layout) + 1)
    body = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    state = StateVector.from_amplitudes(layout, body / np.linalg.norm(body))
    beta_hat = np.array([0.9, 0.4, 0.6, 0.25, 0.5])
    for c in (0.25, 0.1):
        got = apply_cr_beta(state, beta_hat, c)
        want = _per_token_cr_beta(state.append_register("ancilla", 1), beta_hat, c)
        assert got.layout() == want.layout()
        assert np.array_equal(got.amplitudes, want.amplitudes)


def test_rotation_constant_validation():
    state = basis([("index", 1)], index=1)
    with pytest.raises(InvalidRotationError):
        apply_cr_beta(state, np.array([0.5]), 0.6)
    with pytest.raises(InvalidInputError):
        apply_cr_beta(state, np.array([0.5]), -1.0)
    with pytest.raises(InvalidInputError):
        apply_cr_beta(state, np.array([0.0, 0.5]), 0.1)
    with pytest.raises(InvalidInputError):
        apply_cr_beta(state, np.array([1.5]), 0.1)


# -- post-selection -----------------------------------------------------------


def test_amplification_repetition_counts():
    assert amplification_repetitions(1.0) == 1
    assert amplification_repetitions(0.25) == 2  # pi / (4 asin 1/2) = 3/2
    assert amplification_repetitions(1e-4) == math.ceil(math.pi / (4 * math.asin(1e-2)))
    with pytest.raises(VanishingSuccessError):
        amplification_repetitions(0.0)


def _postselect_fixture(keep_weight):
    # The anchor outcome kept half the mass; the ancilla-1 branch carries the
    # rest of the joint weight on index 1.
    layout = [("index", 1), ("ancilla", 1)]
    amps = np.zeros((2, 2))
    amps[1, 1] = np.sqrt(2.0 * keep_weight)
    amps[0, 0] = np.sqrt(1.0 - 2.0 * keep_weight)
    return StateVector.from_amplitudes(layout, amps), 0.5


def test_postselect_keeps_flagged_branch():
    state, anchor_probability = _postselect_fixture(0.25)
    result = postselect(state, anchor_probability)
    assert result.probability == pytest.approx(0.25, abs=1e-12)
    assert result.amplification_reps == 2
    assert result.state.layout() == (("index", 1),)
    assert result.state.basis_amplitude({"index": 1}) == pytest.approx(1.0, abs=1e-12)
    assert result.sampled_probability is None


def test_postselect_sampled_probability():
    state, anchor_probability = _postselect_fixture(0.25)
    result = postselect(state, anchor_probability, shots=100_000, rng_seed=17)
    sigma = math.sqrt(0.25 * 0.75 / 100_000)
    assert abs(result.sampled_probability - 0.25) <= 3.0 * sigma
    assert result.success_count == round(result.sampled_probability * result.shots)
    # Same seed, same draw.
    again = postselect(state, anchor_probability, shots=100_000, rng_seed=17)
    assert again.sampled_probability == result.sampled_probability


def test_postselect_zero_mass_branch():
    state, anchor_probability = _postselect_fixture(0.0)
    with pytest.raises(VanishingSuccessError):
        postselect(state, anchor_probability)


def _anchor_fixture(rows):
    data = DataMatrix(np.array(rows))
    tree = build_tree(data)
    rho = RhoSpec.from_model(svd_decompose(data, 1.0, 0))
    return rho, PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL), tree


def test_postselect_rejects_an_anchor_that_does_not_fit_the_feature_register():
    rho, cfg, tree = _anchor_fixture([[3.0, 4.0]])
    state = anchor = prepare_row_state(tree, 0)
    wide = StateVector.zero([("feature", 2)])
    misnamed = StateVector.from_amplitudes([("row", 1)], anchor.amplitudes)
    extra = anchor.append_register("index", 1)
    for bad in (wide, misnamed, extra):
        with pytest.raises(InvalidInputError):
            project_anchor(rho, cfg, state, bad, [(1, 1)], distinct_top=1)


def test_project_anchor_keeps_the_anchor_outcome():
    # Orthogonal rows of norms 5 and 10: row 0 is the second principal
    # direction, so against itself it keeps all its mass, on token 2. Row 1
    # is orthogonal to the anchor and keeps none.
    rho, cfg, tree = _anchor_fixture([[3.0, 4.0], [-8.0, 6.0]])
    anchor = prepare_row_state(tree, 0)
    labels = [(1, 1), (2, 2)]
    kept, prob = project_anchor(rho, cfg, anchor, anchor, labels, distinct_top=2)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert kept.layout() == (("index", 2),)
    assert abs(kept.basis_amplitude({"index": 2})) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(VanishingSuccessError):
        project_anchor(rho, cfg, prepare_row_state(tree, 1), anchor, labels, distinct_top=2)


# -- swap test ----------------------------------------------------------------


def test_swap_test_identical_states():
    a = StateVector.from_amplitudes([("q", 1)], np.array([0.6, 0.8]))
    result = swap_test(a, a, shots=1000, rng_seed=1)
    assert result.p0_exact == pytest.approx(1.0)
    assert result.p0_hat == 1.0  # binomial at p=1 is deterministic
    assert result.overlap_sq == pytest.approx(1.0)
    assert result.standard_error == 0.0


def test_swap_test_orthogonal_states_unbiased():
    a = StateVector.from_amplitudes([("q", 1)], np.array([1.0, 0.0]))
    b = StateVector.from_amplitudes([("q", 1)], np.array([0.0, 1.0]))
    shots = 1000
    raws = []
    for seed in range(50):
        result = swap_test(a, b, shots=shots, rng_seed=seed)
        assert result.p0_exact == pytest.approx(0.5)
        raws.append(result.overlap_sq_raw)
        assert result.overlap_sq >= 0.0
    raws = np.array(raws)
    # The raw estimator straddles zero; the clamped one cannot.
    assert raws.min() < 0.0
    assert abs(raws.mean()) <= 3.0 / math.sqrt(shots * 50)


def test_swap_test_quarter_overlap():
    a = StateVector.from_amplitudes([("q", 1)], np.array([1.0, 0.0]))
    b = StateVector.from_amplitudes([("q", 1)], np.array([0.5, math.sqrt(3.0) / 2.0]))
    result = swap_test(a, b, shots=1_000_000, rng_seed=7)
    assert result.p0_exact == pytest.approx(0.625, abs=1e-12)
    assert abs(result.overlap_sq_raw - 0.25) <= 3.0 * result.standard_error
    assert result.standard_error == pytest.approx(
        2.0 * math.sqrt(0.625 * 0.375 / 1_000_000), abs=1e-15
    )
    with pytest.raises(InvalidInputError):
        swap_test(a, b, shots=0)


# -- register sampling ---------------------------------------------------------


def test_measure_register_exact_marginal():
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    state = StateVector.from_amplitudes([("q", 1)], np.array([inv_sqrt2, inv_sqrt2]))
    sample = measure_register(state, "q", shots=100, rng_seed=0)
    np.testing.assert_allclose(sample.marginal, [0.5, 0.5], atol=1e-12)
    assert sum(sample.counts.values()) == 100


def test_measure_register_frequencies_concentrate():
    state = StateVector.from_amplitudes([("q", 1)], np.array([np.sqrt(0.75), 0.5]))
    sample = measure_register(state, "q", shots=10_000, rng_seed=23)
    sigma = math.sqrt(0.75 * 0.25 / 10_000)
    assert abs(sample.frequency(0) - 0.75) <= 3.0 * sigma
    assert abs(sample.frequency(1) - 0.25) <= 3.0 * sigma
    assert sample.frequency(1) == sample.counts.get(1, 0) / 10_000
