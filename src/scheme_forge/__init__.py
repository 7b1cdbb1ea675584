"""scheme-forge: translation association schemes from group actions on
finite abelian groups, with exact cyclotomic duality certificates."""

from .errors import (SchemeForgeError, UsageError, ConfigError,
                     ResourceLimitError, IntegrityError)
from .gf import FieldSpec, FieldElement
# the tests' reference rank, which no command calls: imported so that
# the benchmark tracer, which wraps it, finds it loaded
from . import oracles
from .cyclo import CycloInt, cyclotomic_polynomial, euler_phi
from .space import (AbelianSpace, VectorSpace, FullMatrixSpace,
                    AlternatingMatrixSpace, SymmetricMatrixSpace,
                    HermitianMatrixSpace, CyclicProductSpace,
                    space_from_config)
from .poset import WeakOrderPoset
from .action import (GeneratorSet, OrbitPartition, build_action, orbits,
                     check_condition_4, check_condition_6, adjoint_map,
                     verify_adjoint)
from .scheme import TranslationScheme
from .duality import (constancy_test, character_profile, pairing_table,
                      verify_eigen_identities, verify_idempotents,
                      sigma_permutation, krein_parameters, duality_report,
                      DualityCertificate)

__version__ = "0.1.0"

__all__ = [
    "SchemeForgeError", "UsageError", "ConfigError", "ResourceLimitError",
    "IntegrityError", "FieldSpec", "FieldElement", "CycloInt",
    "cyclotomic_polynomial", "euler_phi", "AbelianSpace", "VectorSpace",
    "FullMatrixSpace", "AlternatingMatrixSpace", "SymmetricMatrixSpace",
    "HermitianMatrixSpace", "CyclicProductSpace", "space_from_config",
    "WeakOrderPoset", "GeneratorSet", "OrbitPartition", "build_action",
    "orbits", "check_condition_4", "check_condition_6", "adjoint_map",
    "verify_adjoint", "TranslationScheme", "constancy_test",
    "character_profile", "pairing_table", "verify_eigen_identities",
    "verify_idempotents", "sigma_permutation", "krein_parameters",
    "duality_report", "DualityCertificate",
]
