"""Every exported name resolves, so removing a function cannot leave a
dangling entry in an ``__all__`` list."""

import importlib
import inspect

import pytest

import qsemimarkov
from qsemimarkov import errors

LIBRARY = ["emitters", "measures", "numerics", "quantum", "semimarkov"]
MODULES = ["qsemimarkov"] + [f"qsemimarkov.{name}" for name in (
    "cli", "errors", *LIBRARY)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_package_exports_every_library_export():
    # a name removed from a module but not from the package (or the other
    # way round) fails here
    expected = {"__version__"}
    for name in LIBRARY:
        expected |= set(importlib.import_module(f"qsemimarkov.{name}").__all__)
    classes = inspect.getmembers(errors, inspect.isclass)
    expected |= {name for name, cls in classes
                 if issubclass(cls, errors.QsmError)}
    assert set(qsemimarkov.__all__) == expected


@pytest.mark.parametrize("module, name", [
    ("semimarkov", "eta"),                # duplicated the private _branch
    ("numerics", "binary_entropy"),       # now the Holevo oracle of the tests
    ("semimarkov", "DeltaKernel"),        # only tests called these two
    ("semimarkov", "kernel_closed_form"),
    ("quantum", "kraus_from_choi"),       # map_at had closed-form Kraus sets
    ("numerics", "Spectrum"),             # eigenvectors went with it
    ("numerics", "hermitian_eig"),        # then hermitian_eigvals
    # the 4x4 channel layer: the measures take Bloch forms in q or g, and
    # the superoperator route is the test oracle in superop_route.py
    ("quantum", "apply_superop"),
    ("quantum", "CPTPReport"),
    ("quantum", "is_cptp"),
    ("quantum", "intermediate_map"),
    ("semimarkov", "map_at"),
    ("semimarkov", "superop_at"),
    ("semimarkov", "jump_superop"),
    ("semimarkov", "ExponentialKernel"),  # solve_volterra takes a and b
    ("quantum", "choi_of_superop"),       # Choi matrices from Kraus forms
    ("numerics", "hermitian_eigvals"),
    ("numerics", "von_neumann_entropy"),
    ("errors", "SingularMap"),            # only intermediate_map raised it
    ("errors", "NonHermitianInput"),      # only hermitian_eigvals raised it
    # only the two-stage wait's inverse_cdf raised it, which could only fail
    ("errors", "UnsupportedVariant"),
    # the state inputs: BLP and Holevo take the |+>, |-> pair in closed form
    ("measures", "PLUS_STATE"),
    ("measures", "MINUS_STATE"),
    ("quantum", "check_density_matrix"),
    ("errors", "InvalidState"),
    ("errors", "DimensionMismatch"),
    # the Choi form takes the rate form's exact sum: no quadrature is left
    ("numerics", "adaptive_quad"),
    ("numerics", "QuadratureResult"),
    ("numerics", "QuadratureRows"),
    ("errors", "ToleranceNotMet"),        # only adaptive_quad raised it
    # the divisibility boundary is the closed form s^2/8, not a bisection
    ("measures", "divisibility_boundary"),
    ("measures", "BoundaryEstimate"),
    ("errors", "NoSignChange"),           # only the bisection raised it
])
def test_deleted_names_stay_out_of_the_exports(module, name):
    assert name not in qsemimarkov.__all__
    assert not hasattr(importlib.import_module(f"qsemimarkov.{module}"), name)
