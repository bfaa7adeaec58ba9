"""The package namespace holds the documented library API, and no more."""
import ast
import importlib
import re
from pathlib import Path

import powergain

README = Path(__file__).resolve().parents[1] / "README.md"

#: The names README.md imports or names, the types they return or raise,
#: and the version.
API = {
    "TScoreSample", "TuningConfig", "estimate", "power_gain_curve", "EstimateReport",
    "build_basis", "hermite_sequence", "reconstruct_prior", "GroupedEffects",
    "conditional_delta", "SpectralBasis", "ConditionalReport", "EstimationError",
    "CaliperError", "__version__",
}

#: Names that are not the package's but their module's.
MODULE_ONLY = {
    "basis": ["J_MAX", "conditional_power", "gaussian_pdf", "normal_quantile"],
    "spectrum": ["kernel_S", "kernel_S_grid", "select_tuning"],
    "pubbias": ["EmpiricalTail", "caliper_tail", "significant"],
    "estimator": ["RowEstimates", "delta_hat_pb", "delta_hat_pb_rows"],
    "inference": ["confidence_interval", "influence", "q_hat", "variance_hat"],
    "simulate": ["FITTED_MASSES", "NOISES", "PRIORS", "CoverageRow", "DgpSpec",
                 "draw_population", "oracle_delta", "oracle_power", "run_coverage"],
}


def readme_package_imports() -> set[str]:
    """Every name a Python block of README.md imports from the package."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "powergain":
                names.update(alias.name for alias in node.names)
    return names


def test_all_is_the_documented_api():
    assert len(powergain.__all__) == len(API) and set(powergain.__all__) == API
    for name in powergain.__all__:
        getattr(powergain, name)


def test_readme_imports_are_exported():
    imported = readme_package_imports()
    assert imported and imported <= set(powergain.__all__)


def test_internals_import_from_their_module():
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"powergain.{module}")
        for name in names:
            assert name not in powergain.__all__
            assert not hasattr(powergain, name)
            getattr(mod, name)
