"""Domain exceptions shared across the package."""


class StabcorrectError(Exception):
    """Base class for all package-specific failures."""


class CollectionEmpty(StabcorrectError):
    """No candidate set reached the requested size; retry with fresh randomness."""


class PfrSubgroupNotFound(StabcorrectError):
    """No usable cover: too few accepted pairwise sums to span a subgroup (the
    failure sentinel), or more symplectic pairs than extraction covers."""


class SelfCorrectionFailed(StabcorrectError):
    """No candidate: all pipeline attempts exhausted, or n = 1 refused."""


class NoCandidateFound(StabcorrectError):
    """No product-state candidate was collected within the round budget."""


class BlockWeightBelowTolerance(StabcorrectError):
    """Every sampled computational branch carries negligible weight."""

