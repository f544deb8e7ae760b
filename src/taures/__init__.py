"""Exact residue-in-tau pairings for Anderson t-modules over perfect
coefficient fields: twisted Laurent arithmetic, Gram certification, and
T-deformation Fitting ideals, all in exact characteristic-p arithmetic.
"""

from .errors import (ConvergenceError, DimensionError, FieldError,
                     NotInvertibleError, PrecisionError, SkewParseError,
                     TauresError)
from .fields import ExtField, Fq, FqElement, PerfElement, PerfField, SPoly
from .skew import SkewLaurent, invert_scalar
from .skewmat import SkewMatrix, invert_series_matrix, mat_mul
from .anderson import (AndersonModule, Differential, carlitz,
                       carlitz_tensor, drinfeld, find_k1, maurischat,
                       phi_inverse_power, phi_of_poly, termination_bound,
                       validate)
from .pairing import (GramMatrix, PairingContext, check_perfectness,
                      check_tau_commutation, drinfeld_closed_form,
                      expand_sesquilinear, gram, measure_b, pairing_inverse,
                      residue_pair)
from .lseries import (BivariatePoly, TauMatrix, brute_force_fitting,
                      drinfeld_tau_matrices, fitting_ideal,
                      fitting_ideal_power_oracle, poly_unit_equiv)
from .parsing import parse_manifest, parse_skew_expr

__version__ = "0.1.0"
