"""Dyadic frequency analysis on the discrete torus.

Littlewood-Paley decompositions with an exact partition of unity,
Besov/Triebel-Lizorkin quasi-norms, dealiased paraproducts, a reproducible
field bank, and numerical audits of the classical inequalities the
construction rests on.
"""

from .audit import (AuditRecord, SweepResult, audit_embedding,
                    audit_multiplication, check_delta_lt, check_hardy,
                    check_maximal_qsup, check_nikolskii, check_qj_lp,
                    check_qj_lt, hardy_bound, lemma_suite,
                    nikolskii_scaling, run_audit_manifest)
from .dyadic import (DyadicSystem, build_dyadic_system, decompose, delta_j,
                     q_j, smooth_cutoff)
from .fldio import read_field, write_field
from .grid import Field, Grid, build_grid
from .hypotheses import (HypothesisReport, check_embedding_hypotheses,
                         check_theorem_hypotheses, pick_admissible_p)
from .norms import (INF, SpaceSpec, besov_norm, lp_norm, sequence_norm,
                    space_norms, triebel_norm)
from .paraproduct import (ProductDecomposition, SupportReport,
                          dealiased_product, decompose_product,
                          dump_decomposition, enumerate_pi2_direct, min_gap,
                          verify_supports)
from .testbank import (GeneratorSpec, band_limit, bank_specs,
                       constant_field, lacunary_field, materialize,
                       plateau_frequency, pure_wave, random_band_field,
                       spec_for, tuple_fields, tuple_specs)

__version__ = "0.1.0"

__all__ = [
    "AuditRecord", "DyadicSystem",
    "Field", "GeneratorSpec", "Grid", "HypothesisReport", "INF",
    "ProductDecomposition", "SpaceSpec", "SupportReport", "SweepResult",
    "audit_embedding", "audit_multiplication", "band_limit", "bank_specs",
    "besov_norm",
    "build_dyadic_system", "build_grid", "check_delta_lt",
    "check_embedding_hypotheses", "check_hardy", "check_maximal_qsup",
    "check_nikolskii", "check_qj_lp", "check_qj_lt",
    "check_theorem_hypotheses", "constant_field", "dealiased_product",
    "decompose", "decompose_product", "delta_j", "dump_decomposition",
    "enumerate_pi2_direct", "hardy_bound", "lacunary_field",
    "lemma_suite", "lp_norm", "materialize", "min_gap", "nikolskii_scaling",
    "pick_admissible_p", "plateau_frequency", "pure_wave", "q_j",
    "random_band_field", "read_field", "run_audit_manifest",
    "sequence_norm", "smooth_cutoff", "space_norms",
    "spec_for",
    "triebel_norm", "tuple_fields",
    "tuple_specs",
    "verify_supports",
    "write_field",
]
