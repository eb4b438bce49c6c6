"""Exact combinatorics of spherical homogeneous spaces.

Computes the anticanonical section weight kappa = 2 rho_S - 2 rho_{Sp},
classifies colors into types a / 2a / b (from spherical roots or from
exact sl2 stabilizer images), assembles the divisor coefficients with an
independent uniqueness oracle, and handles the valuation cone with its
order calculus.  All arithmetic is exact over Fraction.
"""

from .rootsys import (Coweight, Root, RootSystem, RootSystemSpec, Weight,
                      build_root_system, kappa, pair, parse_spec,
                      positive_roots, rho, two_rho)
from .datum import (ColorRecord, SphericalDatum, compute_Sp, parse_datum,
                    serialize_datum, validate_datum)
from .lunatypes import (ColorType, audit_pairings, classify_luna,
                        expected_chi_pairing, resolved_types)
from .anticanon import (AnticanonicalDivisor, ValuationCone,
                        anticanonical_divisor, color_coefficient,
                        color_coefficients, cone_contains,
                        cone_generator_directions, cone_interior_witness,
                        enumerate_positive_solutions, generator_order_shift,
                        uniqueness_certificate, valuation_cone, verify,
                        verify_decomposition)
from .knoplie import (ImageClass, LiePresentation, Sl2Image, classify_image,
                      classify_knop, dphi_project, image_for_root,
                      make_presentation, open_orbit_check, resolve_torus_like,
                      stabilizer_in_parabolic, validate_presentation)
from .catalog import CatalogEntry, Expected, builtin, catalog_keys
from .docio import dump_document, load_document
from .errors import (DatumError, InconsistencyError, InsufficientDataError,
                     SchemaError, UnresolvedTypeError)
from .report import Finding, Report

__version__ = "0.1.0"
