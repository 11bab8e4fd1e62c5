"""The default campaign knobs, kept apart from the campaign so that the CLI
can show them without loading it."""

DEFAULT_SEED = 42
DEFAULT_TRIALS = 200
DEFAULT_DIMS = (2, 3, 4, 6)
DEFAULT_COND_CAP = 1e4
