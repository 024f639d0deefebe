"""Toolkit for undirected signed networks with a dominant group.

Classifies balance structure (structural, quasi, and generalized quasi
balance), builds the dominance-scaled Laplacian flow for a chosen dominant
subset, certifies whether the flow polarizes asymmetrically by its
antagonism headroom, an effective-resistance test, and simulates or
predicts the final opinion profile.  A small CLI drives the same pipeline
from edge-list files.

Every public name below, submodules included, is imported on first use
(PEP 562), so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule: the public names it defines
_EXPORTS = {
    "errors": (
        "BadGamma", "BadIndex", "BadPartition", "BadState", "BadStep", "DimensionMismatch",
        "DuplicateEdge", "GqsbError", "MissingDataset", "NoConvergence", "NonFiniteWeight",
        "NotGQSB", "NotPolarizing", "NotSymmetric", "ParseError", "SelfLoop", "TooLarge",
        "ZeroWeight",
    ),
    "signed_graph": (
        "GQSB", "QSB", "SB", "UNBALANCED", "Bipartition", "IncidenceMatrix", "NeighborSets",
        "SignDecomposition", "SignedGraph", "bipartition_from_dominant", "chromatic_number",
        "classify", "condense_positive_components", "connected_components",
        "enumerate_gqsb_bipartitions", "incidence_matrix", "is_qsb",
        "is_structurally_balanced", "neighbor_sets", "positive_components", "spanning_forest",
        "subgraph_by_sign", "validate_gqsb",
    ),
    "operators": (
        "EigenDecomposition", "OperatorBundle", "default_zero_tol", "gauge_matrices",
        "generalized_adjacency", "generalized_degree", "generalized_laplacian",
        "opposing_laplacian", "partner_laplacian", "partner_network", "repelling_laplacian",
        "sym_eigen", "sym_eigvals", "z_transform_network",
    ),
    "spectral": (
        "PartnerCore", "PolarizationCertificate", "Verdict", "certify", "clear_partner_cache",
        "effective_resistance", "partner_core", "pseudoinverse", "psd_simple_zero",
    ),
    "dynamics": (
        "DIVERGENCE_LIMIT", "OutcomeKind", "OutcomeReport", "Termination", "Trajectory",
        "assess", "closed_form_state", "default_step", "integrate", "predict_final",
    ),
    "fileio": (
        "DATA_DIR_ENV", "Report", "ScenarioConfig", "dump_network", "highland_path",
        "load_highland", "load_network", "load_state_file", "loads_network",
        "report_to_json", "run_pipeline", "trajectory_to_csv",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
