"""Numerical verification of weighted mean-convexity classes and the
associated three-point (Popoviciu-type) inequalities."""

from .convexity import (ConvexitySpec, PointFunction, RefutationRecord, Verdict,
                        Witness, defining_gap, diagonal_refute, verify_class,
                        verify_extended_class)
from .catalog import (AuditFinding, CatalogEntry, builtin_claims,
                      builtin_functions, make_function, run_audit)
from .errors import (DomainError, EvaluationError, HypothesisMismatchError,
                     InapplicableSpecError, MeanConvexError)
from .intervals import Interval
from .means import ChainVerdict, MeanKind, check_am_gm_hm, mean_classic, mean_eval
from .popoviciu import (BASE_SENSE, EQUALITY_FAMILIES, ChainedReport,
                        LinkResult, PopoviciuReport, TheoremId, chained_check,
                        equality_max_residual, equality_residual, hlawka_check,
                        hlawka_margins, popoviciu_sides, search_theorem,
                        theorem_margins, two_point_reduction, verify_theorem)
from .sampling import SamplePlan
from .weights import (AdditivityClass, WeightFunction, classify_additivity,
                      classify_multiplicativity, constant_weight,
                      identity_weight, power_weight, power_weight_class,
                      reciprocal_weight, weight_eval)

__version__ = "0.1.0"
