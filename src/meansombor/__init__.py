"""Mean Sombor index toolkit.

Degree-based edge-sum invariants built on the two-argument power mean,
with an extended exponent line (finite nonzero reals plus the 0-limit and
both infinities), mechanical verification of the proved bounds relating
them, the associated matrix/variance identities, and a QSPR regression
pipeline over octane-isomer skeletons.

Names are imported from their modules: ``meansombor.graphs``, ``indices``,
``spectral``, ``bounds``, ``qspr`` and ``cli``.
"""
