"""Exact bosonic ladder calculus on permutative Cuntz-algebra representations."""

from .scalar import ONE, RadicalScalar, ZERO, sqrt_nat, sqrt_product
from .words import EPWord, Word, rotations
from .states import Ket
from .cuntz import RepSpec, apply_generator, apply_monomial
from .boson import apply_annihilate, apply_create, fock_extension_action, fock_word
from .expr import Factor, Term, eval_on_ket, parse_expression
from .branching import (ComponentReport, basis_family, basis_lambda_j, basis_monomials,
                        classify_vacuum, cyclicity_witness, enumerate_components, inequivalence_witness)
from .embed import (embed_generator, fock_word_in_ON, odometer_action, odometer_isomorphism,
                    translate_word)

__version__ = "0.1.0"
