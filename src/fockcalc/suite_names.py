"""Names of the verification suites.

Kept apart from ``suite`` so the command-line parser can offer the names
without loading the suites, the path oracle or numpy.
"""

#: Selectable suites; "all" runs the others in this order.
SUITE_NAMES = ("car", "bounds", "commutation", "clark", "covariance", "bridge", "all")
