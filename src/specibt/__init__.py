"""Executable laboratory for speculative control-flow integrity: a small
block-structured IR with sequential, speculative and ideal semantics, a
hardening pass combining forward-edge CFI with load/store masking, a flat
machine target, and differential checkers for the security properties.
"""

__version__ = "0.1.0"
# The revision of the rules of the semantics, the hardening pass and the
# state relation. Bump it only when a rule changes, so that golden files
# can be invalidated deliberately; a refactoring leaves it as it is.
SEMANTICS_REVISION = 1
