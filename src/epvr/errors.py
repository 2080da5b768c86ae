"""Exception types raised across the pipeline."""


class EpvrError(Exception):
    """Base class for all package-specific errors."""


# rotation / geometry
class DegenerateRotation(EpvrError):
    """6D rotation input cannot be orthonormalized (zero or parallel columns)."""


class NotARotation(EpvrError):
    """Matrix fails the orthonormality check."""


class ZeroLengthBone(EpvrError):
    """A bone collapsed below the minimum representable length."""


# streams / timing
class TimestampSkew(EpvrError):
    """Device timestamps diverge beyond the synchronization tolerance."""


class NonMonotonicTime(EpvrError):
    """A sample arrived with a timestamp not after the previous one."""


class StaleFrame(EpvrError):
    """Frame pushed into a window that already contains a newer frame."""


class NonFiniteInput(EpvrError):
    """A device pose carries a NaN or infinite value."""


class ChannelCountMismatch(EpvrError):
    """Vector filter bank received a vector of the wrong width."""


# array and tensor shapes
class ShapeError(EpvrError):
    """An array argument has an unexpected shape, or a weights file's tensors
    or network config are malformed, inconsistent or violate the architecture."""


# neural forward / weights files
class NonFiniteActivation(EpvrError):
    """NaN or Inf appeared in a forward-pass intermediate."""


class BadMagic(EpvrError):
    """File or wire frame does not start with the expected magic bytes."""


# metrics / synthesis
class DegenerateCloud(EpvrError):
    """Point cloud has zero spread; alignment is undefined."""


class UnknownMotionKind(EpvrError):
    """Synthetic motion kind is not one of the supported schedules."""


# wire protocol / server
class CrcMismatch(EpvrError):
    """Stored CRC-32 does not match the bytes it covers: a wire envelope, or
    a weights file (also one too short to hold its checksum)."""


class TruncatedFrame(EpvrError):
    """Byte buffer ends before the declared envelope length."""


class OversizedFrame(TruncatedFrame):
    """Envelope header declares a payload longer than the protocol allows."""


class UnknownKind(EpvrError):
    """Envelope kind byte is not a known message kind."""


class BindFailure(EpvrError):
    """Server could not bind the requested address."""


class UnknownModel(EpvrError):
    """HELLO named a model that is not in the registry."""


# replay files
class FileFormat(EpvrError):
    """Replay file is malformed or has the wrong header."""


class FrameCountMismatch(EpvrError):
    """Motion and keypoint replay files disagree on frame count."""
