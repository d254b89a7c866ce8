"""Coxeter polynomials of star-like trees: exact cyclotomic/Salem
factorization, certified order/degree/multiplicity bounds, and
dominant-root convergence experiments."""

from .intpoly import IntPoly, NotDivisible
from .cyclotomic import CyclotomicTable, cyclotomic_poly, default_table, phi_sum
from .coxeter import (
    ArityError,
    BlockDecomposition,
    InternalInconsistency,
    OrderError,
    StarTree,
    characteristic_polynomial,
    coxeter_polynomial,
    limit_polynomial,
    p_polynomial,
    qrs_blocks,
)
from .factorize import (
    CYCLOTOMIC_ONLY,
    QUADRATIC_PISOT,
    SALEM,
    CertificationError,
    ClassificationError,
    CoxeterFactorization,
    MultiplicityBoundTrace,
    cyclotomic_divisors,
    extract_cyclotomic,
    factor_coxeter,
    multiplicity_bound,
    order_bound,
    salem_degree_lower_bound,
    verify_mann,
)
from .roots import (
    ConvergenceRecord,
    NoSignChange,
    RootCertificate,
    certify_tree,
    converge_general,
    converge_mbonacci,
    dominant_root,
    fraction_to_decimal,
    lambda_bracket,
)
from .scan import PeriodicityViolation, ScanRecord, grid_verify, periodicity_scan

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "NotDivisible",
    "CyclotomicTable",
    "cyclotomic_poly",
    "default_table",
    "phi_sum",
    "ArityError",
    "BlockDecomposition",
    "InternalInconsistency",
    "OrderError",
    "StarTree",
    "characteristic_polynomial",
    "coxeter_polynomial",
    "limit_polynomial",
    "p_polynomial",
    "qrs_blocks",
    "SALEM",
    "QUADRATIC_PISOT",
    "CYCLOTOMIC_ONLY",
    "CertificationError",
    "ClassificationError",
    "CoxeterFactorization",
    "MultiplicityBoundTrace",
    "cyclotomic_divisors",
    "extract_cyclotomic",
    "factor_coxeter",
    "multiplicity_bound",
    "order_bound",
    "salem_degree_lower_bound",
    "verify_mann",
    "ConvergenceRecord",
    "NoSignChange",
    "RootCertificate",
    "certify_tree",
    "converge_general",
    "converge_mbonacci",
    "dominant_root",
    "fraction_to_decimal",
    "lambda_bracket",
    "PeriodicityViolation",
    "ScanRecord",
    "grid_verify",
    "periodicity_scan",
]
