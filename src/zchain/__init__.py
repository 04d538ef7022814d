"""Exact-arithmetic model structure on bounded chain complexes over Z.

The package classifies chain maps (cofibrations, fibrations, weak
equivalences), produces both functorial factorizations through group-ring
resolutions, solves lifting squares constructively, and certifies cofibrant
generation, properness, and the pushout-product axiom, all in exact
integer arithmetic on finitely generated abelian groups.
"""

__version__ = "0.1.0"
