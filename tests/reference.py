"""The published 4x4 worked example: its slopes, its matrix and its control
parameters.  Needs numpy and cthwave only, so scripts/reproduce_worked_matrix.py
imports it without pytest; the tests import it the same way."""

import numpy as np

from cthwave.chaos import ChaosParams

# Twelve published slope values of the 4x4 worked example, in slot order
# (H1 averaging rows, H1 differencing rows, H2 averaging row, H2
# differencing row; two draws per row).
REFERENCE_LAMBDAS = [
    1.469, -0.351, -0.075, 0.027,
    -0.070, 0.033, -0.028, 0.156,
    0.674, 0.147, 0.570, 0.834,
]

# Printed entries of the worked 4x4 chaotic transform matrix.
REFERENCE_MATRIX = np.array(
    [
        [0.614, 0.780, 1.057, 1.044],
        [0.835, 1.061, -0.836, -0.826],
        [0.983, -0.992, 0.0, 0.0],
        [0.0, 0.0, 0.993, -0.962],
    ]
)

# Published worked-example control parameters.
REFERENCE_PARAMS = ChaosParams(x0=0.2, n1=3, n2=4, a1=2.0, a2=2.5, eps=0.4)
