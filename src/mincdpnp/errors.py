"""Exception types shared across the package.

Every condition that callers are expected to branch on gets its own class;
plain ValueError is reserved for programming errors (bad shapes, invalid
configuration values).
"""


class MinCDError(Exception):
    """Base class for all domain errors raised by this package."""


class NearPiRotation(MinCDError):
    """Rotation angle too close to pi; the log map is ill conditioned there."""


class DimensionMismatch(MinCDError):
    """Feature vectors of unequal dimension were compared."""


class MissingFeatures(MinCDError):
    """An operation needing feature vectors got a keypoint set without them."""


class EmptySet(MinCDError):
    """An operation needing a nonempty keypoint set got an empty one."""


class NotOneToOne(MinCDError):
    """A correspondence set required to be a matching repeats an index."""


class AllPointsBehindCamera(MinCDError):
    """No 3D point projects in front of the camera at the given pose."""


class Divergence(MinCDError):
    """An iterative solver failed to make progress despite a large gradient."""


class TooFewPoints(MinCDError):
    """Fewer correspondences than the solver's minimum sample size."""


class NoConsensus(MinCDError):
    """RANSAC found no pose whose consensus reaches pnp.MIN_PNP_POINTS pairs."""


class MissingDepth(MinCDError):
    """A pixel has no depth value, so it cannot be back-projected."""


class EmptyGroundTruth(MinCDError):
    """Recall is undefined: no 2D keypoint has a correct 3D partner."""
