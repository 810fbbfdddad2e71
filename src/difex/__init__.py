"""Domain generalization by learning internally- and mutually-invariant features.

A teacher network is fit to Fourier phase representations of the inputs,
then a student is trained on raw inputs with four objective terms: task
cross-entropy, distillation toward the frozen teacher, cross-domain
correlation alignment, and an exploration term that pushes the two halves
of the embedding apart. Everything runs on a small reverse-mode autodiff
core over float64 numpy arrays. Names are imported from the modules,
each of which lists its API in ``__all__``.
"""

__version__ = "0.1.0"
