"""Exact computer algebra for coadjoint orbits of sym(n) x| GL+(n).

The package constructs the group and its Lie algebra inside sp(n), the
coadjoint action and orbit normal forms, semiinvariant polynomials and
the ideals of regular orbits, and a degree-by-degree deformation
quantization of the orbit's polynomial algebra with machine-checkable
certificates for every step.

The package's own modules load on first use, as numpy and scipy do:
``import orbitquant`` loads none of them, and the first read of an
exported name imports the one submodule ``_EXPORTS`` maps it to (PEP 562)
and keeps the name here.  ``from orbitquant import invariants`` still
imports that submodule.  ``verify`` is the exception inside the package:
it imports every module its checks run at load, so the battery's forked
workers inherit them instead of importing them again.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "CapacityError": "errors",
    "CertificationError": "errors",
    "DomainError": "errors",
    "OrbitQuantError": "errors",
    "StructuralError": "errors",
    "groebner_basis": "groebner",
    "poly_normal_form": "groebner",
    "standard_monomials": "groebner",
    "HPoly": "hpoly",
    "InvariantCertificate": "invariants",
    "OrbitIdeal": "invariants",
    "SemiinvariantFamily": "invariants",
    "no_invariants_certificate": "invariants",
    "orbit_ideal": "invariants",
    "pfaffian": "invariants",
    "regularity_check": "invariants",
    "semiinvariant_family": "invariants",
    "DualCoordinates": "lie",
    "LieBasis": "lie",
    "StructureConstants": "lie",
    "build_lie_basis": "lie",
    "lie_poisson_bracket": "lie",
    "trace_pairing": "lie",
    "rational_kernel": "linalg",
    "NCPoly": "ncpoly",
    "PBWAlgebra": "ncpoly",
    "symmetrize": "ncpoly",
    "DualPoint": "orbits",
    "GroupElement": "orbits",
    "LieElement": "orbits",
    "NormalForm": "orbits",
    "adjoint": "orbits",
    "coadjoint": "orbits",
    "embed_sp": "orbits",
    "group_inverse": "orbits",
    "group_multiply": "orbits",
    "normal_form": "orbits",
    "orbit_dimension": "orbits",
    "MonomialOrder": "poly",
    "MultiPoly": "poly",
    "OrbitQuantization": "quantize",
    "QuotientElement": "quantize",
    "build_report": "verify",
    "emit_report": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
