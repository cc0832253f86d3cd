"""A finite-model workbench for algebras of partial functions, their dual
finite etale categories, and rational word functions given by transducers.

The main entry points:

- `pfun`: concrete partial functions on a finite base; the semantic oracle.
- `algebra`: finite operation-table algebras and the ten-axiom
  representability checker.
- `filters`: general filter calculus; the test oracle for the dual and for
  `check_locally_proper`. No pipeline module imports it, and the package
  exports none of its names.
- `topcat`: finite topological categories and multivalued functors.
- `dualize` / `sections`: the two halves of the duality.
- `duality`: the double-dual isomorphisms and naturality checks.
- `transducer`: one-way word transducers with bounded-word oracles.
- `cli`: the `pfdual` command.
"""

# formats first: without a bytecode cache its source, the largest, is then
# compiled while little else is live, which keeps down the memory that the
# import leaves in the process (and in every child forked from it).  It
# also keeps the generation-0 count that perfbench's forked verdicts inherit
# inside the window where their scaled times hold: with formats imported
# later, the count after `import pfdual.cli` fell from 632 to 364, and
# scaled bidual-cold verdict_p50_s rose from 3.1-3.3 to 5.6-6.0 ms while
# raw times rose far less, 4.6 to 4.8-6.4 ms (2 vCPUs, Python 3.11; the
# generation-0 FOUND in CHANGES.md).
# tests/test_formats.py::TestFileGuards::test_formats_is_imported_first pins
# this order.
from . import formats  # noqa: F401
from .algebra import (
    AxiomReport,
    FinAlgebra,
    Homomorphism,
    check_axioms,
    check_homomorphism,
    check_locally_proper,
    derive_constants,
)
from .dualize import DualCategory, pf_morphism, pf_object
from .duality import phi, theta
# imported for perfbench/tracer.py alone, which wraps
# filters.enumerate_prime_filters and looks the module up in sys.modules
# after `import pfdual.cli`
from . import filters  # noqa: F401
from .pfun import Base, PFunc, as_abstract, close_under_ops, enumerate_all
from .sections import enumerate_sections, seccl_morphism, seccl_object
from .topcat import FinTopology, MultiFunctor, TopCategory, validate_object_of_C
from .transducer import Transducer

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "Base",
    "DualCategory",
    "FinAlgebra",
    "FinTopology",
    "Homomorphism",
    "MultiFunctor",
    "PFunc",
    "TopCategory",
    "Transducer",
    "as_abstract",
    "check_axioms",
    "check_homomorphism",
    "check_locally_proper",
    "close_under_ops",
    "derive_constants",
    "enumerate_all",
    "enumerate_sections",
    "pf_morphism",
    "pf_object",
    "phi",
    "seccl_morphism",
    "seccl_object",
    "theta",
    "validate_object_of_C",
]
