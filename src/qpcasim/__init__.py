"""Classical simulator for PCA-style quantum data compression.

The package builds the classical singular-value analysis of a data matrix,
mirrors it in an explicit multi-register statevector simulation (amplitude
encoding, eigenvalue labeling, conditional rotation, postselection),
and layers small classifier and regression demos on top of the compressed
representation.

``import qpcasim`` loads no submodule, and the package itself binds no
public name: each one is imported from its home module
(``from qpcasim.pca_oracle import svd_decompose``), so a process pays only
for the layers it imports.

The CLI follows the same rule: ``qpcasim.cli`` loads ``errors``, ``modes``,
``statevector`` and ``pca_oracle``; compress, scaling and ledger add
``qpca_pipeline``, ``sv_engine`` and ``qram_store`` when they run, qsvm and
qlr add ``qml_apps``. Compiled from source, those three steps cost about
39, 47 and 16 ms (README, Layout), where importing every module up front
cost about 100 ms whatever the task.
"""
