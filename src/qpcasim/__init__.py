"""Classical simulator for PCA-style quantum data compression.

The package builds the classical singular-value analysis of a data matrix,
mirrors it in an explicit multi-register statevector simulation (amplitude
encoding, eigenvalue labeling, conditional rotation, postselection),
and layers small classifier and regression demos on top of the compressed
representation.

``import qpcasim`` loads no submodule. Each public name below resolves on
first use (PEP 562 ``__getattr__``) by importing its home module, so a
process pays only for the layers it touches: ``qpcasim.svd_decompose`` loads
``pca_oracle`` and its imports, ``qpcasim.compress`` the whole compression
stack. ``_HOMES`` is the one list of public names; ``__all__`` is its keys.

The CLI follows the same rule: ``qpcasim.cli`` loads ``errors``, ``modes``,
``statevector`` and ``pca_oracle``; compress, scaling and ledger add
``qpca_pipeline``, ``sv_engine`` and ``qram_store`` when they run, qsvm and
qlr add ``qml_apps``. Compiled from source, those three steps cost about
39, 47 and 16 ms (README, Layout), where importing every module up front
cost about 100 ms whatever the task.
"""

from importlib import import_module

# Public name -> the submodule that defines it.
_HOMES = {
    "QpcaError": "errors",
    "InvalidInputError": "errors",
    "ParseError": "errors",
    "OutOfRangeError": "errors",
    "NumericalFailureError": "errors",
    "ContractViolationError": "errors",
    "UnknownRegisterError": "errors",
    "DegenerateSpectrumError": "errors",
    "InvalidRotationError": "errors",
    "VanishingSuccessError": "errors",
    "WeakAnchorError": "errors",
    "UnderSampledError": "errors",
    "SingularSystemError": "errors",
    "DegenerateRegressionError": "errors",
    "Register": "statevector",
    "StateVector": "statevector",
    "DataMatrix": "pca_oracle",
    "SpectralModel": "pca_oracle",
    "CompressedMatrix": "pca_oracle",
    "OverlapReport": "pca_oracle",
    "svd_decompose": "pca_oracle",
    "project": "pca_oracle",
    "expected_compressed_state": "pca_oracle",
    "pairwise_overlap_report": "pca_oracle",
    "QramTree": "qram_store",
    "build_tree": "qram_store",
    "norm_prep_unitary": "qram_store",
    "row_prep_unitary": "qram_store",
    "apply_norm_prep": "qram_store",
    "apply_row_prep": "qram_store",
    "prepare_data_state": "qram_store",
    "PHASE_SCALE": "sv_engine",
    "PhaseConfig": "sv_engine",
    "eigen_labels": "sv_engine",
    "check_label_distinctness": "sv_engine",
    "phase_estimate": "sv_engine",
    "inverse_phase_estimate": "sv_engine",
    "apply_cu_lambda": "sv_engine",
    "project_anchor": "sv_engine",
    "eigen_marginal_state": "sv_engine",
    "apply_cr_beta": "sv_engine",
    "PostselectResult": "sv_engine",
    "amplification_repetitions": "sv_engine",
    "postselect": "sv_engine",
    "SwapTestResult": "sv_engine",
    "swap_test": "sv_engine",
    "RegisterSample": "sv_engine",
    "measure_register": "sv_engine",
    "MODE_IDEAL": "modes",
    "MODE_QUANTIZED": "modes",
    "MODE_SAMPLED": "modes",
    "SCOPE_FULL": "qpca_pipeline",
    "SCOPE_SUBSET": "qpca_pipeline",
    "PERTURB_ALTERNATING": "qpca_pipeline",
    "AnchorProfile": "qpca_pipeline",
    "ResourceLedger": "qpca_pipeline",
    "ledger_predict": "qpca_pipeline",
    "extract_spectrum": "qpca_pipeline",
    "exact_anchor_profile": "qpca_pipeline",
    "estimate_anchor": "qpca_pipeline",
    "CompressionReport": "qpca_pipeline",
    "CompressResult": "qpca_pipeline",
    "RunResult": "qpca_pipeline",
    "compress": "qpca_pipeline",
    "run_compression": "qpca_pipeline",
    "select_anchor": "qpca_pipeline",
    "perturb_beta": "qpca_pipeline",
    "ScalingResult": "qpca_pipeline",
    "error_scaling_experiment": "qpca_pipeline",
    "LabeledDataset": "qml_apps",
    "LssvmModel": "qml_apps",
    "lssvm_train": "qml_apps",
    "lssvm_decision_values": "qml_apps",
    "OverlapDemoResult": "qml_apps",
    "qsvm_state_demo": "qml_apps",
    "QlrPrediction": "qml_apps",
    "qlr_predict": "qml_apps",
    "QlrDemoResult": "qml_apps",
    "qlr_state_demo": "qml_apps",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
