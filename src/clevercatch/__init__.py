"""CleverCatch: rule-guided weak supervision for prescriber fraud detection.

Pipeline stages: parse weighted domain rules and claims tables, build
rule-contrast features, pretrain rule/sample encoders on synthetic triplets,
align sample embeddings to rule embeddings with entropic optimal transport to
obtain calibrated pseudo-labels, then train a detector on a hybrid
supervised + alignment objective. A claims simulator with planted fraud and a
command-line front end round out the package.
"""

import os

# Multithreaded BLAS spends CPU without saving wall time on these small
# matrices, and ablate's worker processes already use every CPU. An explicit
# setting still wins; it only takes effect if numpy is not yet imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
