"""
Weighted Bruhat orders on the symmetric group, divided-difference operators
on (padded) Schubert polynomials, and exact Smith normal form checks for the
resulting layer matrices, together with the analogous raising/lowering
calculus on products of finite chains.

Everything is exact integer arithmetic; no floating point.

The names below, and the layer submodules themselves, are read on first
use (PEP 562), so ``import bruhatops`` compiles none of the submodules: each
CLI command loads only the modules it runs.
"""

import importlib

# the functions schubert.schubert and snf.snf are left out, so that
# bruhatops.schubert and bruhatops.snf stay the submodules
_EXPORTS = {
    "chains": (
        "base_change_unimodular_check",
        "construct_A",
        "construct_B",
        "dm_layer_matrix",
        "monomials_of_profile_rank",
        "normalize_profile",
        "predicted_um_snf",
        "profile_rank_size",
        "profile_rank_sizes",
        "staircase",
        "um_determinant_check",
        "um_determinant_formula",
        "um_layer_matrix",
        "um_snf_check",
        "verify_chains_basis",
        "verify_chains_det",
    ),
    "hasse": (
        "ORDERS",
        "WEIGHT_SYSTEMS",
        "WeightedHasseDiagram",
        "build_hasse",
        "chevalley_weight",
        "code_weight",
        "diagram_to_dot",
        "diagram_to_json",
        "layer_matrix",
        "mahonian_numbers",
        "nabla_weight",
        "predicted_snf",
        "rank_size",
        "verify_snf_theorem",
        "verify_w0_symmetry",
        "w0_symmetry_check",
        "weighted_path_count",
    ),
    "operators": (
        "commutator_check",
        "differential_layer_matrix",
        "verify_delta_theorem",
        "verify_macdonald",
        "verify_nabla_theorem",
        "verify_path_identities",
        "verify_sl2",
    ),
    "permutations": (
        "Permutation",
        "identity",
        "inverse",
        "lehmer_code",
        "length",
        "longest_element",
        "num_inversions_max",
        "parse",
        "permutations_by_rank",
        "permutations_of_rank",
        "strong_covers_up",
        "to_string",
        "w0_times",
        "weak_covers_up",
    ),
    "schubert": (
        "IntPolynomial",
        "PaddedPolynomial",
        "apply_delta",
        "apply_nabla",
        "basis_matrix_inverse",
        "divided_difference",
        "expand_in_padded_schubert_basis",
        "monomials_of_rank",
        "pad",
        "principal_specialization",
        "schubert_standard",
        "unpad",
    ),
    "snf": ("determinant", "transpose"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
