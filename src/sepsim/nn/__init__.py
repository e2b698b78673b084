"""Minimal reverse-mode autodiff stack: tensors, layers, losses, optimizers,
a batch training loop, and a finite-difference gradient checker.

The package exports nothing; import each name from the submodule that
defines it (tensor, layers, losses, optim, training, gradcheck).
"""
