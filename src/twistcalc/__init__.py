"""Exact computation of Johnson homomorphisms and Casson-core values
for products of Dehn twists along bounding simple closed curves."""
