"""hopfcore: exact computations with connected truncated bialgebras over Q.

The pipeline: structure constants -> coradical-style filtration -> graded
splitting -> associated graded algebra -> homogeneous generators -> ordered
divided-power basis -> convolution algebras and stable cores of ideals under
module-algebra actions.  Everything is exact rational arithmetic.  The
names imported here are the public surface.
"""

from .coalgebra import (
    CoradicalFiltration,
    FilteredBialgebraData,
    GradedSplitting,
    build_ueg,
    build_xyw,
    check_primitivity_defects,
    check_coradically_graded,
    check_delta_consistency,
    check_level_closure,
    coradical_filtration,
    gr_structure,
    graded_splitting,
    instance_from_json,
    verify_axioms,
    verify_gr_facts,
)
from .convolution import (
    ConvElement,
    LeadingTerm,
    Witness,
    builtin_ring,
    check_leading_law,
    convolve,
    counit_pullback,
    leading,
    prime_refuter,
    prime_witness,
    random_conv_element,
    ring_check,
    ring_from_tables,
    semiprime_refuter,
    semiprime_witness,
)
from .action import (
    HCoreResult,
    Ideal,
    ModuleAlgebraAction,
    QuotientAlgebra,
    core_primeness_probe,
    hcore,
    conv_map,
    verify_module_algebra,
)
from .linalg import Subspace, complement, rat, rat_str
from .monoid import GeneratorSet
from .pbw import PBWStructure, extract_generators, lift_generators
from .table import PolynomialAlgebra, TableAlgebra

__version__ = "0.1.0"
