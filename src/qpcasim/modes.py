"""Run-mode names and the ledger's accuracy limit, the one home of what the
pipeline and the CLI share.

The module imports only ``math`` and ``errors``, so the CLI can default and
validate ``--mode``, ``--eps-beta`` and ``--bits`` without loading the
compression pipeline. ``qpca_pipeline`` describes what each mode does.
"""

import math

from .errors import OutOfRangeError

MODE_IDEAL = "ideal"
MODE_QUANTIZED = "quantized"
MODE_SAMPLED = "sampled"
RUN_MODES = (MODE_IDEAL, MODE_QUANTIZED, MODE_SAMPLED)

# The ledger prices the spectrum stage at dim log2(N D) / (eps_beta^2
# eps_lambda^3), with eps_lambda = 2^(1 - bits), and sampled swap tests take
# ceil(4 / eps_beta^2) shots. Keeping 1 / (eps_beta^2 eps_lambda^3) at most
# 2^LEDGER_EXPONENT_LIMIT keeps every such number finite for any matrix
# numpy can hold, where dim log2(N D) < 2^70.
LEDGER_EXPONENT_LIMIT = 900


def check_ledger_accuracy(eps_beta: float, bits: float) -> None:
    """Refuse (``OutOfRangeError``) an ``eps_beta`` outside (0, 1), or one
    whose 1 / (eps_beta^2 eps_lambda^3), eps_lambda = 2^(1 - bits), exceeds
    2^LEDGER_EXPONENT_LIMIT. The CLI's config check, ``run_compression``
    and ``ledger_predict`` all refuse through this one check."""
    if not 0.0 < eps_beta < 1.0:
        raise OutOfRangeError(f"eps_beta must lie in (0, 1), got {eps_beta}")
    # 3 (bits - 1) is -log2(eps_lambda^3); capping bits keeps it a float.
    exponent = 3 * min(bits - 1, LEDGER_EXPONENT_LIMIT) - 2 * math.log2(eps_beta)
    if exponent > LEDGER_EXPONENT_LIMIT:
        raise OutOfRangeError(
            f"--eps-beta {eps_beta!r} with --bits {bits} puts 1 / (eps_beta^2 eps_lambda^3) "
            f"above 2^{LEDGER_EXPONENT_LIMIT} (eps_lambda = 2^(1 - bits)), too large for the ledger's "
            "costs; raise --eps-beta or lower --bits"
        )
