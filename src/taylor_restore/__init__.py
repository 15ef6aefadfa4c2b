"""Image restoration by truncated-series composition of two small conv nets,
built on a from-scratch reverse-mode autodiff core."""
