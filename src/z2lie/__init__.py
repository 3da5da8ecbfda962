"""Z2-graded algebras, Hu-Liu Leibniz brackets, and the extended CBH series.

Exact structure-constant arithmetic, the catalog of division and
composition Z2-graded algebras, machine verification of the bracket
identities, a symbolic engine for the combined-exponential series, and a
numeric block-matrix model for tangent-space experiments.
"""
