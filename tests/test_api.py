"""The public API is declared once: each module's __all__ is what `from irrevkit import ...` gives."""

import inspect
import types

import irrevkit
from irrevkit import comb, errors, fixtures, irrev, oracles, otoc, qcore, serialize, way

MODULES = (qcore, irrev, comb, oracles, way, otoc, serialize, fixtures)
ERROR_CLASSES = {n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)}


def test_every_declared_name_is_the_same_object_at_the_top_level():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(irrevkit, name, None) is getattr(mod, name), f"{mod.__name__}.{name}"
    for name in ERROR_CLASSES:
        assert getattr(irrevkit, name) is getattr(errors, name), name


def test_every_public_top_level_name_is_declared():
    declared = {n for mod in MODULES for n in mod.__all__} | ERROR_CLASSES
    for name in dir(irrevkit):
        value = getattr(irrevkit, name)
        submodule = isinstance(value, types.ModuleType) and value.__name__ == f"irrevkit.{name}"
        assert name.startswith("_") or submodule or name in declared, name


# every (callable, parameter) of the public API that has a default; the result records are left out
OPTIONS = {
    ("Comb", "branch_scale"),
    ("ExtractionConfig", "fit_tol"),
    ("ExtractionConfig", "method"),
    ("ExtractionConfig", "optimizer"),
    ("ExtractionConfig", "thetas"),
    ("KrausChannel", "trace_preserving"),
    ("OptimizerConfig", "max_iters"),
    ("OptimizerConfig", "restarts"),
    ("OptimizerConfig", "seed"),
    ("OptimizerConfig", "step"),
    ("OptimizerConfig", "tol"),
    ("ScramblingScenario", "rho"),
    ("check_conservation", "charges"),
    ("conserving_error_implementation", "rng"),
    ("conserving_error_implementation", "u_meas"),
    ("conserving_otoc_implementation", "lam"),
    ("delta_min", "cfg"),
    ("delta_min", "warm_starts"),
    ("extract", "cfg"),
    ("extract", "recovery"),
    ("extract_epsilon", "cfg"),
    ("extract_eta", "cfg"),
    ("extract_two_copy", "cfg"),
    ("extract_two_copy", "f"),
    ("ising_chain_scenario", "n"),
    ("omega_pm", "q"),
    ("otoc_iep", "cfg"),
    ("otoc_iep", "recovery"),
    ("otoc_iep_cp", "cfg"),
    ("state_from_bloch", "label"),
    ("two_copy_comb", "f"),
    ("way_bound_disturbance", "cfg"),
    ("way_bound_disturbance", "lhs"),
    ("way_bound_error", "cfg"),
    ("way_bound_error", "lhs"),
}


def test_the_option_surface_is_the_recorded_one():
    """A new knob, or a dropped one, shows up here as a test edit."""
    found = set()
    for mod in MODULES:
        for name in mod.__all__:
            value = getattr(mod, name)
            if callable(value) and name not in ("DeltaReport", "IepResult"):
                params = inspect.signature(value).parameters.values()
                found |= {(name, p.name) for p in params if p.default is not p.empty}
    assert len(OPTIONS) == 35
    assert found == OPTIONS
