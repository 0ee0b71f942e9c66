"""The package namespace: exactly the submodules' ``__all__``, each name bound."""

import lorentz_cmc
import lorentz_cmc.cli
import lorentz_cmc.elliptic
from lorentz_cmc import bvp, core, errors, flux, mesh, oracle, profile, quadrature

MODULES = (bvp, core, errors, flux, mesh, oracle, profile, quadrature)


def test_all_is_version_plus_the_union_of_the_submodules():
    union = {name for module in MODULES for name in module.__all__}
    assert len(lorentz_cmc.__all__) == len(set(lorentz_cmc.__all__))
    assert set(lorentz_cmc.__all__) == {"__version__"} | union


def test_every_exception_class_is_exported():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.LorentzCMCError)}
    assert len(classes) == 8
    assert classes <= set(lorentz_cmc.__all__)


def test_every_name_resolves_and_star_import_binds_it():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lorentz_cmc, name) is getattr(module, name)
    namespace = {}
    exec("from lorentz_cmc import *", namespace)
    assert set(lorentz_cmc.__all__) <= set(namespace)


def test_removed_names_are_not_exported():
    for name in ("asymptotic_slope_estimate", "hyperbolic_center_height",
                 "patch_from_function", "load_config", "DEFAULT_MAX_INTERVALS",
                 "closed_form_maximal", "closed_form_hyperbolic"):
        assert name not in lorentz_cmc.__all__
        assert not hasattr(lorentz_cmc, name)
    for name in ("closed_form_maximal", "closed_form_hyperbolic", "_height"):
        assert not hasattr(lorentz_cmc.profile, name)
    assert not hasattr(lorentz_cmc.cli, "load_config")
    assert not hasattr(lorentz_cmc.quadrature, "DEFAULT_MAX_INTERVALS")
    for name in ("R_F", "R_D"):
        assert name not in lorentz_cmc.elliptic.__all__
        assert not hasattr(lorentz_cmc.elliptic, name)
