"""Desk-scale numerical verification of Orlicz-space constructions on the
torus: Luxemburg norms, dyadic Besov-Orlicz norms, integral embedding
conditions, Marcinkiewicz-type sampling inequalities, ball-measure lower
bounds, and Yano-style extrapolation of summing norms.
"""

from .young import (YoungFunction, YoungFunctionError, make_power,
                    make_logpower, make_section7, make_tabulated, validate,
                    check_sqrt_concavity, check_supermultiplicativity,
                    check_inverse_product, SECTION7_R)
from .luxemburg import norm_seq, norm_fun, poly_norm, embed_l2_check
from .trig import (TrigPoly, fejer, plateau_kernel, band_kernel, Frame,
                   frame, convolve, sample_on_grid, poly_l1)
from .besov import (BesovParams, multiplier, modulus,
                    besov_norm_classical, besov_norm_tilde,
                    best_approximation, check_sum_integral_sandwich,
                    check_norm_comparison)
from .conditions import (Weight, constant_weight, power_weight,
                         embedding_weight, embedding_condition_eval,
                         embedding_condition_sup,
                         factorization_integral_condition,
                         weight_domination_check)
from .sampling import (classical_check_1d, orlicz_sampling_check,
                       l2_sampling_lower, random_poly_on_frame, random_poly_1d)
from .extrapolation import (BoundProfile, bucket, weighted_integral,
                            verify_extrapolation_chain, sobolev_profile,
                            admissible_gamma, summing_criterion)
from .geometry import BallPair, symmdiff_measure, check_symmdiff_lower_bound
from .numerics import Status
from .reports import VerificationReport

__version__ = "0.1.0"
