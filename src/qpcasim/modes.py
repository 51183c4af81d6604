"""Run-mode names, the one home of the strings the pipeline and the CLI share.

The module imports nothing, so the CLI can default and validate ``--mode``
without loading the compression pipeline. ``qpca_pipeline`` describes what
each mode does.
"""

MODE_IDEAL = "ideal"
MODE_QUANTIZED = "quantized"
MODE_SAMPLED = "sampled"
RUN_MODES = (MODE_IDEAL, MODE_QUANTIZED, MODE_SAMPLED)
