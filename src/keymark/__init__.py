"""Exact construction, verification, and LP certification of optimal
multi-bit key-pattern watermarking schemes.

A scheme couples each of T messages with a joint distribution over
(token, key) pairs whose token marginal equals the given px exactly; the
decoder reads the key entry at the drawn token.  Constructions here achieve
the smallest possible worst-case miss rate 1 - sum_x min(alpha/T, px(x))
under a false-alarm budget alpha, and the embedded exact LP certifies that
restricted (bijective) key families cannot.
"""

from .core import (
    ENUMERATION_CAP,
    ErrorReport,
    ExplicitKeySet,
    JointTable,
    KeySet,
    KeyVector,
    ReducedKeySet,
    TokenDistribution,
    WatermarkScheme,
    decode,
    enumerate_reduced_keyset,
)
from .construct_a import (
    ImbalanceLedger,
    build_pm1,
    build_pm2,
    build_pm3,
    construct_a,
)
from .construct_b import Extension, construct_b, extend_px
from .errors import (
    CapacityError,
    InvariantError,
    KeymarkError,
    ParameterError,
    SolverError,
    ValidationError,
)
from .lp import (
    DualCertificate,
    LpProblem,
    LpSolution,
    bijective_keyset,
    build_primal,
    check_dual,
    export_lp_text,
    solve,
)
from .metrics import (
    PropertyCheck,
    PropertyReport,
    check_scheme,
    error_report,
    false_alarm_by_token,
    miss_detection,
    optimal_value,
    worst_false_alarm,
)
from .rationals import mass_to_string, parse_mass
from .serialize import (
    deserialize_scheme,
    export_csv,
    load_scheme,
    save_scheme,
    serialize_scheme,
)
from .sim import TrialReport, monte_carlo, sample
from .split import PxSplit, cap_vector, split_px
from .thot import (
    THotDecomposition,
    THotTerm,
    decompose_t_hot,
    is_t_hot_representable,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ENUMERATION_CAP",
    "DualCertificate",
    "ErrorReport",
    "ExplicitKeySet",
    "Extension",
    "ImbalanceLedger",
    "InvariantError",
    "JointTable",
    "KeySet",
    "KeyVector",
    "KeymarkError",
    "LpProblem",
    "LpSolution",
    "ParameterError",
    "PropertyCheck",
    "PropertyReport",
    "PxSplit",
    "ReducedKeySet",
    "SolverError",
    "THotDecomposition",
    "THotTerm",
    "TokenDistribution",
    "TrialReport",
    "ValidationError",
    "WatermarkScheme",
    "bijective_keyset",
    "build_pm1",
    "build_pm2",
    "build_pm3",
    "build_primal",
    "cap_vector",
    "check_dual",
    "check_scheme",
    "construct_a",
    "construct_b",
    "decode",
    "decompose_t_hot",
    "deserialize_scheme",
    "enumerate_reduced_keyset",
    "error_report",
    "export_csv",
    "export_lp_text",
    "extend_px",
    "false_alarm_by_token",
    "is_t_hot_representable",
    "load_scheme",
    "mass_to_string",
    "miss_detection",
    "monte_carlo",
    "optimal_value",
    "parse_mass",
    "sample",
    "save_scheme",
    "serialize_scheme",
    "solve",
    "split_px",
    "worst_false_alarm",
]
