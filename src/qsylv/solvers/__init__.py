"""Solver hierarchy for Sylvester-type quaternion matrix systems: import
from its modules (``families``, ``basic``, ``two_term``, ``master``,
``specials``)."""
