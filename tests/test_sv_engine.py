"""Tests for the statevector engine: label writing, controlled rotations,
post-selection, and sampling primitives."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qpcasim.errors import (
    ContractViolationError,
    DegenerateSpectrumError,
    InvalidInputError,
    InvalidRotationError,
    OutOfRangeError,
    VanishingSuccessError,
)
from qpcasim.modes import MAX_SHOTS, MODE_IDEAL, MODE_QUANTIZED
from qpcasim.pca_oracle import DataMatrix, coefficients, svd_decompose
from qpcasim.qram_store import prepare_data_state
from qpcasim.statevector import StateVector
from qpcasim.sv_engine import (
    PHASE_SCALE,
    PhaseConfig,
    amplification_repetitions,
    apply_cr_beta,
    apply_cu_lambda,
    check_label_distinctness,
    eigen_labels,
    eigen_marginal_state,
    inverse_phase_estimate,
    measure_register,
    phase_estimate,
    postselect,
    project_anchor,
    swap_test,
)

from oracles import anchor_state, eigen_register_width, reference_token_circuit, signed_left_vectors, spectral_model


def stated(eigenvalues, dim=None):
    """The model of a stated spectrum on the standard basis, keeping ``dim``
    components (all of them by default)."""
    lam = np.array(eigenvalues)
    return spectral_model(lam, np.eye(lam.size), lam.size if dim is None else dim)


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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_state_norm_makes_no_temporary_of_the_state_size(dtype):
    # An 8 MiB float64 state (16 MiB complex), and the same amplitudes seen
    # through swapped axes: the norm is one dot product over the memory
    # the state already holds, so it allocates next to nothing.
    amps = np.random.default_rng(7).standard_normal(1 << 20).astype(dtype)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    state = StateVector.from_amplitudes([("a", 10), ("b", 10)], amps)
    swapped = StateVector(state.registers[::-1], state.amplitudes.T)
    for s in (state, swapped):
        tracemalloc.start()
        try:
            norm = s.norm()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert peak < 2**16


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


def test_statevector_project_and_remove_refuses_zero_mass():
    # No state of zero norm is built: a zero-mass projection is refused, as
    # restrict_register refuses one.
    state = StateVector.from_amplitudes([("a", 1), ("b", 1)], np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInputError, match=r"projection onto \{'b': 1\} has zero mass"):
        state.project_and_remove({"b": 1})


def test_statevector_restrict_register_reads_a_generator_once():
    # The allowed values are read once, so a generator restricts, and is
    # named in a refusal, as a list is.
    state = StateVector.from_amplitudes([("a", 2)], np.array([0.6, 0.0, 0.0, 0.8]))
    kept, prob = state.restrict_register("a", (v for v in (3, 1)))
    assert prob == pytest.approx(0.64, abs=1e-12)
    assert kept.basis_amplitude({"a": 3}) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidInputError, match=r"projection of register 'a' onto \[1, 2\] has zero mass"):
        state.restrict_register("a", (v for v in (2, 1, 2)))
    with pytest.raises(InvalidInputError, match="basis value 4 out of range for register 'a'"):
        state.restrict_register("a", (v for v in (1, 4, -1)))
    with pytest.raises(TypeError):
        state.restrict_register("a", [1.0])


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
    cfg = PhaseConfig(MODE_QUANTIZED, 3)
    np.testing.assert_array_equal(eigen_labels(stated([0.75, 0.25]), cfg), [3, 1])
    # Dyadic eigenvalues decode exactly: doubling a label over 2^bits undoes
    # the half-phase encoding.
    assert 2.0 * 3 / (1 << cfg.bits) == 0.75
    assert 2.0 * 1 / (1 << cfg.bits) == 0.25


def test_labels_rank_one_no_wraparound():
    cfg = PhaseConfig(MODE_QUANTIZED, 1)
    # The half-phase encoding keeps eigenvalue 1 inside a 1-bit register.
    np.testing.assert_array_equal(eigen_labels(stated([1.0]), cfg), [1])
    assert PHASE_SCALE == 0.5


def test_labels_ideal_mode_is_positional():
    cfg = PhaseConfig(MODE_IDEAL, 2)
    np.testing.assert_array_equal(eigen_labels(stated([0.6, 0.3, 0.1]), cfg), [1, 2, 3])


def test_quantized_labels_are_at_most_63_bits_wide():
    # At 63 bits the largest label, 2^62, still fits int64; wider quantized
    # registers are refused, and ideal mode's width only sets a resolution.
    cfg = PhaseConfig(MODE_QUANTIZED, 63)
    assert eigen_labels(stated([1.0]), cfg).tolist() == [2**62]
    for bits in (64, 100):
        with pytest.raises(OutOfRangeError):
            PhaseConfig(MODE_QUANTIZED, bits)
    assert PhaseConfig(MODE_IDEAL, 2000).bits == 2000


def test_eigen_marginal_state_holds_only_the_labels_present():
    # Five components carry four labels at 40 bits (the two zero
    # eigenvalues share label 0): the register holds four values, not 2^40.
    model = stated([0.5, 0.3, 0.2, 0.0, 0.0])
    cfg = PhaseConfig(MODE_QUANTIZED, 40)
    labels, state = eigen_marginal_state(model, cfg)
    assert labels.tolist() == sorted(set(eigen_labels(model, cfg).tolist()))
    assert labels[0] == 0 and labels[-1] == 2**38 and labels.size == 4
    assert state.layout() == (("eigen", 2),)
    np.testing.assert_allclose(state.probabilities("eigen"), [0.0, 0.2, 0.3, 0.5], atol=1e-15)


def test_label_collision_detected():
    cfg = PhaseConfig(MODE_QUANTIZED, 2)
    with pytest.raises(DegenerateSpectrumError):
        check_label_distinctness(stated([0.5, 0.5]), cfg)
    # One component alone still shares its label with the tail component,
    # whose variance would receive its token.
    with pytest.raises(DegenerateSpectrumError) as info:
        check_label_distinctness(stated([0.5, 0.5], dim=1), cfg)
    assert info.value.leaked_tail_mass == pytest.approx(0.5)
    # A near-degenerate pair collides at coarse width and separates with
    # more bits; a truly degenerate pair never separates.
    close = stated([0.52, 0.48])
    with pytest.raises(DegenerateSpectrumError):
        check_label_distinctness(close, cfg)
    check_label_distinctness(close, PhaseConfig(MODE_QUANTIZED, 6))
    with pytest.raises(DegenerateSpectrumError):
        check_label_distinctness(stated([0.5, 0.5]), PhaseConfig(MODE_QUANTIZED, 12))
    assert PhaseConfig(MODE_QUANTIZED, 6).eigenvalue_resolution == pytest.approx(2.0 ** -5)


def test_label_zero_and_tail_collisions_detected():
    # The 6-bit labels of this spectrum are [31, 1, 0, 0]. Keeping three
    # components gives the third label 0, which an unwritten register also
    # holds, and the tail component shares it.
    lam = [0.97, 0.02, 0.008, 0.002]
    cfg = PhaseConfig(MODE_QUANTIZED, 6)
    np.testing.assert_array_equal(eigen_labels(stated(lam), cfg), [31, 1, 0, 0])
    with pytest.raises(DegenerateSpectrumError) as info:
        check_label_distinctness(stated(lam, dim=3), cfg)
    assert info.value.leaked_tail_mass == pytest.approx(0.002)
    assert info.value.payload()["leaked_tail_mass"] == pytest.approx(0.002)
    check_label_distinctness(stated(lam, dim=2), cfg)
    # A kept label of 0 is refused even with no tail component to share it.
    with pytest.raises(DegenerateSpectrumError) as info:
        check_label_distinctness(stated([0.97, 0.02, 0.01]), cfg)
    assert info.value.leaked_tail_mass == 0.0
    # Ideal labels are positional, never 0 and never shared.
    check_label_distinctness(stated(lam, dim=1), PhaseConfig(MODE_IDEAL, 6))


def test_tail_leak_lists_every_tail_component_sharing_a_kept_label():
    # 6-bit labels: 1/2 -> 16, 1/32 -> 1, 1/64 -> 1 and 1/256 -> 0. The twenty
    # 1/64 components after the two kept ones all share the kept label 1; the
    # forty 1/256 components hold label 0, which no kept component has.
    lam = [1 / 2, 1 / 32] + [1 / 64] * 20 + [1 / 256] * 40
    with pytest.raises(DegenerateSpectrumError) as info:
        check_label_distinctness(stated(lam, dim=2), PhaseConfig(MODE_QUANTIZED, 6))
    assert f"tail components {list(range(2, 22))} share a kept label" in str(info.value)
    assert "label 0, the value" not in str(info.value)
    assert info.value.leaked_tail_mass == 20 / 64


def test_label_check_agrees_with_the_set_based_reference():
    # The check compares adjacent kept labels and the tail with the last
    # kept label; the reference takes np.unique and np.isin over all of
    # them. Over random spectra with ties, zero labels and tail leaks, both
    # refuse the same models with the same leaked components.
    rng = np.random.default_rng(31)
    refused = leaked_seen = 0
    for _ in range(400):
        size = int(rng.integers(1, 9))
        lam = np.sort(rng.choice([0.0, 1.0, 2.0, 3.0, 5.0, 8.0], size=size) + rng.uniform(0, 0.4, size))[::-1]
        lam = lam / lam.sum()
        dim = int(rng.integers(1, size + 1))
        cfg = PhaseConfig(MODE_QUANTIZED, int(rng.integers(1, 7)))
        model = stated(lam, dim=dim)
        labels = eigen_labels(model, cfg)
        head = labels[:dim]
        leaked = (dim + np.flatnonzero(np.isin(labels[dim:], head))).tolist()
        faulty = np.unique(head).size != dim or 0 in head or bool(leaked)
        try:
            check_label_distinctness(model, cfg)
        except DegenerateSpectrumError as exc:
            assert faulty
            refused += 1
            if exc.leaked_tail_mass is not None and np.unique(head).size == dim:
                assert exc.leaked_tail_mass == float(lam[leaked].sum())
                assert (f"tail components {leaked} share" in str(exc)) == bool(leaked)
                leaked_seen += bool(leaked)
        else:
            assert not faulty
    assert 0 < refused < 400 and leaked_seen > 0


def test_overlaps_match_the_per_eigenvector_loop_and_negate_with_it():
    # One product in place of one padded dot product of the anchor state
    # per eigenvector: the sums run in another order, so they agree to D
    # ulps of a unit overlap. Negating an eigenvector negates its overlap
    # bit for bit.
    x = np.random.default_rng(3).standard_normal((12, 6))
    data = DataMatrix(x)
    model = svd_decompose(data, 1.0)
    state = anchor_state(data, 4)
    want = []
    for k in range(4):
        padded = np.zeros(8)
        padded[:6] = model.right_vectors[:, k]
        want.append(np.vdot(state.amplitudes, padded))
    got = model.overlaps(data, 4, 4)
    assert got.shape == (4,) and got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=0.0, atol=6 * np.finfo(np.float64).eps)
    flips = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
    flipped = replace(model, right_vectors=model.right_vectors * flips)
    assert np.array_equal(flipped.overlaps(data, 4, 4), got * flips[:4])
    # The swap-test magnitudes are the same bits under either sign.
    assert np.array_equal(coefficients(flipped.overlaps(data, 4, 4)), coefficients(got))


# -- label writing (phase estimation stand-in) -------------------------------


def _labeled_state(data, cfg):
    model = svd_decompose(data, 1.0)
    state = prepare_data_state(data).append_register("eigen", eigen_register_width(cfg, model.n_cols))
    return model, phase_estimate(model, cfg, state)


def test_phase_estimate_matches_schmidt_oracle():
    rng = np.random.default_rng(41)
    data = DataMatrix(rng.standard_normal((4, 4)))
    cfg = PhaseConfig(MODE_QUANTIZED, 6)
    model, state = _labeled_state(data, cfg)
    labels = eigen_labels(model, cfg)
    # Oracle: sum_j sqrt(lambda_j) |u_j>|v_j>|label_j>, built term by term.
    u = signed_left_vectors(data.values, model.right_vectors)
    table = np.zeros((4, 4, 1 << cfg.bits))
    for j in range(4):
        amp = model.singular_values[j] / data.frobenius_norm
        table[:, :, labels[j]] += amp * np.outer(u[:, j], model.right_vectors[:, j])
    for i in range(4):
        for f in range(4):
            for e in np.unique(labels):
                got = state.basis_amplitude({"row": i, "feature": f, "eigen": int(e)})
                assert got == pytest.approx(table[i, f, int(e)], abs=1e-10)


def test_phase_estimate_eigen_marginal_is_spectrum():
    rng = np.random.default_rng(43)
    data = DataMatrix(rng.standard_normal((8, 4)))
    cfg = PhaseConfig(MODE_QUANTIZED, 8)
    model, state = _labeled_state(data, cfg)
    labels = eigen_labels(model, cfg)
    marginal = state.probabilities("eigen")
    for j, lam in enumerate(model.variance_proportions):
        assert marginal[int(labels[j])] == pytest.approx(lam, abs=1e-10)


def test_phase_estimate_roundtrip_is_identity():
    rng = np.random.default_rng(47)
    data = DataMatrix(rng.standard_normal((4, 4)))
    cfg = PhaseConfig(MODE_QUANTIZED, 5)
    model, labeled = _labeled_state(data, cfg)
    original = prepare_data_state(data).append_register("eigen", cfg.bits)
    undone = inverse_phase_estimate(model, cfg, labeled)
    assert undone.fidelity(original) >= 1.0 - 1e-10


def test_phase_estimate_requires_clean_register():
    rng = np.random.default_rng(53)
    data = DataMatrix(rng.standard_normal((4, 4)))
    cfg = PhaseConfig(MODE_QUANTIZED, 5)
    model, labeled = _labeled_state(data, cfg)
    with pytest.raises(ContractViolationError):
        phase_estimate(model, cfg, labeled)


def test_phase_estimate_register_too_narrow():
    cfg = PhaseConfig(MODE_QUANTIZED, 3)
    state = StateVector.zero([("feature", 1), ("eigen", 1)])  # label 3 needs 2 bits
    with pytest.raises(InvalidInputError):
        phase_estimate(stated([0.75, 0.25]), cfg, state)


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
    assert amplification_repetitions(result.probability) == 2
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
    return svd_decompose(data, 1.0), PhaseConfig(MODE_IDEAL, 6), data


def test_project_anchor_takes_one_overlap_list_per_anchor():
    # The anchors are an (anchors, d) stack of kept overlaps; a list of
    # another width, or one list not stacked, is refused.
    model, cfg, data = _anchor_fixture([[3.0, 4.0], [-8.0, 6.0]])
    state = prepare_data_state(data)
    overlaps = model.overlaps(data, 0, 2)
    for bad in (overlaps, overlaps[None, :1], np.zeros((1, 3))):
        with pytest.raises(InvalidInputError, match="overlaps must be"):
            project_anchor(model, cfg, state, bad)
    kept, probs = project_anchor(model, cfg, state, np.stack([overlaps, model.overlaps(data, 1, 2)]))
    assert len(kept) == 2 and probs.shape == (2,)


def test_project_anchor_keeps_the_anchor_outcome():
    # Orthogonal rows of norms 5 and 10: row 0 is the second principal
    # direction, so against itself it keeps all its mass, on token 2. Row 1
    # is orthogonal to the anchor and keeps none.
    model, cfg, data = _anchor_fixture([[3.0, 4.0], [-8.0, 6.0]])
    overlaps = model.overlaps(data, 0, model.selected_dim)[None]
    [kept], [prob] = project_anchor(model, cfg, anchor_state(data, 0), overlaps)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert kept.layout() == (("index", 2),)
    assert abs(kept.basis_amplitude({"index": 2})) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(VanishingSuccessError):
        project_anchor(model, cfg, anchor_state(data, 1), overlaps)


# -- swap test ----------------------------------------------------------------


def test_swap_test_identical_states():
    a = StateVector.from_amplitudes([("q", 1)], np.array([0.6, 0.8]))
    result = swap_test(abs(a.inner(a)) ** 2, shots=1000, rng_seed=1)
    assert result.p0_exact == pytest.approx(1.0)
    assert result.p0_hat == 1.0  # binomial at p=1 is deterministic
    assert result.overlap_sq == pytest.approx(1.0)


def test_swap_test_orthogonal_states_unbiased():
    a = StateVector.from_amplitudes([("q", 1)], np.array([1.0, 0.0]))
    b = StateVector.from_amplitudes([("q", 1)], np.array([0.0, 1.0]))
    shots = 1000
    raws = []
    for seed in range(50):
        result = swap_test(abs(a.inner(b)) ** 2, shots=shots, rng_seed=seed)
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
    result = swap_test(abs(a.inner(b)) ** 2, shots=1_000_000, rng_seed=7)
    assert result.p0_exact == pytest.approx(0.625, abs=1e-12)
    # The raw estimate 2 p0_hat - 1 has standard error 2 sqrt(p0 (1 - p0) / shots).
    stderr = 2.0 * math.sqrt(result.p0_exact * (1.0 - result.p0_exact) / result.shots)
    assert abs(result.overlap_sq_raw - 0.25) <= 3.0 * stderr
    with pytest.raises(OutOfRangeError, match="shots must be >= 1"):
        swap_test(abs(a.inner(b)) ** 2, shots=0)


def test_shot_counts_one_draw_cannot_take_are_refused():
    # numpy's binomial draw takes at most 2^63 - 1 trials; the swap test and
    # postselection share the one readout that refuses more.
    assert MAX_SHOTS == 2**63 - 1
    assert swap_test(1.0, MAX_SHOTS, rng_seed=0).p0_hat == 1.0
    with pytest.raises(OutOfRangeError):
        swap_test(1.0, MAX_SHOTS + 1)
    state, anchor_probability = _postselect_fixture(0.25)
    with pytest.raises(OutOfRangeError):
        postselect(state, anchor_probability, shots=MAX_SHOTS + 1)


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
    assert sample.shots == 10_000
    assert abs(sample.counts.get(0, 0) / sample.shots - 0.75) <= 3.0 * sigma
    assert abs(sample.counts.get(1, 0) / sample.shots - 0.25) <= 3.0 * sigma
