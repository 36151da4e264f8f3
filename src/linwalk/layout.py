"""Fixed layout of the 23-entry augmented gait vector and its row selectors.

Everything the stride maps act on is packed into one vector

    Q = [X, Xdot, P, U, rU, W, d]

with the blocks

    X    (4)  swing-foot then pelvis horizontal positions: X2x X2y X1x X1y
    Xdot (4)  their velocities
    P    (2)  stance-foot contact position (constant within a stride)
    U    (4)  constant torque inputs: M_hy M_hx M_ay M_ax
    rU   (4)  ramp torque coefficients (reach full value at phase end)
    W    (4)  disturbance wrench on the torso: F1x F1y M1y M1x
    d    (1)  support side, +1 / -1 for physical gaits

Sagittal entries sit at even indices and lateral entries at odd indices
throughout the state block, so sagittal/lateral decoupling shows up as a
parity pattern in every transition matrix built on this layout.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Q_DIM = 23

# positions
IX_X2X, IX_X2Y, IX_X1X, IX_X1Y = 0, 1, 2, 3
# velocities
IV_X2X, IV_X2Y, IV_X1X, IV_X1Y = 4, 5, 6, 7
# stance contact
IP_X, IP_Y = 8, 9
# constant inputs: hip sagittal, hip lateral, ankle sagittal, ankle lateral
IU_HY, IU_HX, IU_AY, IU_AX = 10, 11, 12, 13
# ramp inputs, same order
IRU_HY, IRU_HX, IRU_AY, IRU_AX = 14, 15, 16, 17
# disturbances
IW_F1X, IW_F1Y, IW_M1Y, IW_M1X = 18, 19, 20, 21
# support side
ID_SIDE = 22

X_SLICE = slice(0, 4)
XDOT_SLICE = slice(4, 8)
P_SLICE = slice(8, 10)
U_SLICE = slice(10, 14)
RU_SLICE = slice(14, 18)
W_SLICE = slice(18, 22)

Q_NAMES = (
    "X2x", "X2y", "X1x", "X1y",
    "vX2x", "vX2y", "vX1x", "vX1y",
    "Px", "Py",
    "Mhy", "Mhx", "May", "Max",
    "rMhy", "rMhx", "rMay", "rMax",
    "F1x", "F1y", "M1y", "M1x",
    "d",
)


def selector(indices) -> np.ndarray:
    """One-hot row-selection matrix picking the given Q entries in order."""
    rows = np.zeros((len(indices), Q_DIM))
    for r, i in enumerate(indices):
        rows[r, i] = 1.0
    return rows


def pack_state(X=(0.0,) * 4, Xdot=(0.0,) * 4, P=(0.0,) * 2, U=(0.0,) * 4,
               rU=(0.0,) * 4, W=(0.0,) * 4, d: float = 1.0,
               physical: bool = True) -> np.ndarray:
    """Assemble a 23-entry augmented vector from its named blocks.

    `physical` enforces d in {-1, +1}; pass False for algebraic probes
    (d = 0 is then allowed).
    """
    if physical and d not in (-1.0, 1.0):
        raise ValueError("support side d must be -1 or +1 for physical states")
    q = np.zeros(Q_DIM)
    for name, block, sl in (("X", X, X_SLICE), ("Xdot", Xdot, XDOT_SLICE),
                            ("P", P, P_SLICE), ("U", U, U_SLICE),
                            ("rU", rU, RU_SLICE), ("W", W, W_SLICE)):
        arr = np.asarray(block, dtype=float)
        if arr.shape != (sl.stop - sl.start,):
            raise ValueError(f"{name} must have {sl.stop - sl.start} entries")
        q[sl] = arr
    q[ID_SIDE] = d
    return q


@dataclass(frozen=True)
class SelectionMatrices:
    """The fixed row selectors used by the stride-map and gait machinery."""

    S_XP: np.ndarray       # 8 x 23, all states and P except the foot velocity
    S_Xdot2: np.ndarray    # 2 x 23, swing-foot velocity
    S_X2x: np.ndarray      # 1 x 23, sagittal swing-foot position
    S_U: np.ndarray        # 8 x 23, all torque inputs
    S_Mh: np.ndarray       # 2 x 23, constant hip torques
    S_Ma: np.ndarray       # 2 x 23, constant contact torques
    S_rMa: np.ndarray      # 2 x 23, ramp contact torques
    S_d: np.ndarray        # 1 x 23, support side


@lru_cache(maxsize=1)
def selection_matrices() -> SelectionMatrices:
    """The one shared set of selectors, read-only."""
    sel = SelectionMatrices(
        S_XP=selector((IX_X2X, IX_X2Y, IX_X1X, IX_X1Y, IV_X1X, IV_X1Y, IP_X, IP_Y)),
        S_Xdot2=selector((IV_X2X, IV_X2Y)),
        S_X2x=selector((IX_X2X,)),
        S_U=selector(tuple(range(IU_HY, IRU_AX + 1))),
        S_Mh=selector((IU_HY, IU_HX)),
        S_Ma=selector((IU_AY, IU_AX)),
        S_rMa=selector((IRU_AY, IRU_AX)),
        S_d=selector((ID_SIDE,)),
    )
    for a in vars(sel).values():
        a.flags.writeable = False
    return sel
