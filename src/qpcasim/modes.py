"""Run-mode names and every setting check, the one home of what the pipeline
and the CLI share.

Each setting has one check here, with one code and one message, and every
entry point refuses through it: the CLI's ``RunConfig.validate`` before any
input is read, the library where the setting is used. An integer setting (a
seed, an anchor row, a subset row) is read by ``read_integer``, which
refuses a bool or a non-integer. The module imports only ``math``,
``operator`` and ``errors``, so the CLI validates its flags without loading
the pipeline.
``qpca_pipeline`` describes what each mode does.
"""

import math
import operator

from .errors import InvalidInputError, OutOfRangeError

MODE_IDEAL = "ideal"
MODE_QUANTIZED = "quantized"
MODE_SAMPLED = "sampled"
RUN_MODES = (MODE_IDEAL, MODE_QUANTIZED, MODE_SAMPLED)

MAX_LABEL_BITS = 63  # quantized labels, at most 2^(bits - 1), fit int64
MAX_SHOTS = 2**63 - 1  # the most trials one of numpy's binomial or multinomial draws takes
ANCHOR_SHOTS_CONSTANT = 4.0  # a swap test takes ceil(ANCHOR_SHOTS_CONSTANT / eps_beta^2) shots

# The ledger prices the spectrum stage at dim log2(N D) / (eps_beta^2
# eps_lambda^3), with eps_lambda = 2^(1 - bits). Keeping 1 / (eps_beta^2
# eps_lambda^3) at most 2^LEDGER_EXPONENT_LIMIT keeps every such number
# finite for any matrix numpy can hold, where dim log2(N D) < 2^70.
LEDGER_EXPONENT_LIMIT = 900


def check_run_mode(mode: str) -> None:
    if mode not in RUN_MODES:
        raise InvalidInputError(f"unknown mode {mode!r}; expected one of {RUN_MODES}")


def check_theta(theta: float) -> None:
    if not 0.0 < theta <= 1.0:
        raise OutOfRangeError(f"theta must lie in (0, 1], got {theta}")


def check_label_bits(bits: int, mode: str) -> None:
    """Labels are quantized in every run mode but ideal."""
    if bits < 1:
        raise OutOfRangeError(f"bits must be >= 1, got {bits}")
    if mode != MODE_IDEAL and bits > MAX_LABEL_BITS:
        raise OutOfRangeError(f"quantized label width must be at most {MAX_LABEL_BITS} bits, got {bits}")


def read_integer(value, name: str) -> int:
    """``value`` as an int (``operator.index``): a bool, a float or any other
    value that is not an integer is refused (``INVALID_INPUT``)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def check_seed(seed: int | None) -> None:
    if seed is not None and read_integer(seed, "seed") < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {seed}")


def check_subset(subset) -> None:
    if subset is not None and len(subset) == 0:
        raise InvalidInputError("subset, when given, must name at least one row")


def check_eps_beta(eps_beta: float) -> None:
    if not 0.0 < eps_beta < 1.0:
        raise OutOfRangeError(f"eps-beta must lie in (0, 1), got {eps_beta}")


def check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < math.inf:
        raise OutOfRangeError(f"gamma must be positive and finite, got {gamma}")


def check_shots(shots: int) -> None:
    """Refuse a shot count below 1, or above ``MAX_SHOTS`` (``OUT_OF_RANGE``)."""
    if shots < 1:
        raise OutOfRangeError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise OutOfRangeError(f"shots must be at most {MAX_SHOTS} (2^63 - 1) for one seeded draw, got {shots}")


def anchor_shots(eps_beta: float) -> int:
    """Swap-test shots per anchor coefficient, refused past ``MAX_SHOTS``: the
    product is exact, so it refuses just where the quotient reaches 2^63."""
    check_eps_beta(eps_beta)
    if eps_beta**2 * (MAX_SHOTS + 1) <= ANCHOR_SHOTS_CONSTANT:
        raise OutOfRangeError(
            f"--eps-beta {eps_beta!r} needs ceil({ANCHOR_SHOTS_CONSTANT:g} / eps_beta^2) swap-test shots per "
            f"coefficient, more than the {MAX_SHOTS} (2^63 - 1) of one seeded draw; raise --eps-beta"
        )
    return math.ceil(ANCHOR_SHOTS_CONSTANT / eps_beta**2)


def check_ledger_accuracy(eps_beta: float, bits: float) -> None:
    """Refuse an ``eps_beta`` outside (0, 1), or one whose 1 / (eps_beta^2
    eps_lambda^3), eps_lambda = 2^(1 - bits), exceeds 2^LEDGER_EXPONENT_LIMIT."""
    check_eps_beta(eps_beta)
    # 3 (bits - 1) is -log2(eps_lambda^3); capping bits keeps it a float.
    exponent = 3 * min(bits - 1, LEDGER_EXPONENT_LIMIT) - 2 * math.log2(eps_beta)
    if exponent > LEDGER_EXPONENT_LIMIT:
        raise OutOfRangeError(
            f"--eps-beta {eps_beta!r} with --bits {bits} puts 1 / (eps_beta^2 eps_lambda^3) "
            f"above 2^{LEDGER_EXPONENT_LIMIT} (eps_lambda = 2^(1 - bits)), too large for the ledger's "
            "costs; raise --eps-beta or lower --bits"
        )
