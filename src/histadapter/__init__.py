"""Statistical token-histogram adapters on a self-contained autodiff engine."""
