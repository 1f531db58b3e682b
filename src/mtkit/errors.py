"""Exception types raised across the toolkit.

Everything derives from :class:`MTKitError` so callers (and the CLI) can
catch toolkit failures without swallowing unrelated bugs.
"""

from __future__ import annotations


class MTKitError(Exception):
    pass


# -- corpus ------------------------------------------------------------

class BadManifest(MTKitError):
    """Manifest is unreadable, incomplete, or disagrees with its files."""


class MisalignedFiles(MTKitError):
    """Source and target files have different line counts."""

    def __init__(self, src_lines: int, tgt_lines: int) -> None:
        super().__init__(f"source has {src_lines} lines, target has {tgt_lines}")
        self.src_lines = src_lines
        self.tgt_lines = tgt_lines


class EmptyLine(MTKitError):
    """A corpus file contains an empty (or whitespace-only) line."""

    def __init__(self, path: str, line_no: int) -> None:
        super().__init__(f"{path}:{line_no}: empty line")
        self.path = path
        self.line_no = line_no


# -- vocab -------------------------------------------------------------

class InvalidConfig(MTKitError):
    pass


class VocabSizeTooSmall(MTKitError):
    """vocab_size leaves no room beyond the base alphabet and specials."""


class UnknownId(MTKitError):
    """decode() was given a token that is not an id of the vocabulary."""


# -- metrics / reports -------------------------------------------------

class EmptyInput(MTKitError):
    pass


class LengthMismatch(MTKitError):
    def __init__(self, hyp_count: int, ref_count: int) -> None:
        super().__init__(f"{hyp_count} hypotheses vs {ref_count} references")
        self.hyp_count = hyp_count
        self.ref_count = ref_count


class EmptyCorpus(MTKitError):
    pass


class EmptyLanguage(MTKitError):
    """A language contributes zero tokens to a report that divides by them."""


# -- dataset builder ---------------------------------------------------

class MissingTagToken(MTKitError):
    """The vocabulary lacks the direction-tag token for a language."""


class NonEnglishCorpus(MTKitError):
    """A stage-1 corpus has no English side."""


class PlanCoverage(MTKitError):
    """A balance plan and the corpora cannot make a stage-2 mixture."""


class MissingCorpus(MTKitError):
    """A corpus is read in a direction it does not hold."""


# -- translators / synthesis -------------------------------------------

class UnsupportedDirection(MTKitError):
    def __init__(self, src: str, tgt: str) -> None:
        super().__init__(f"model does not support {src}->{tgt}")
        self.src = src
        self.tgt = tgt


class BadLexicon(MTKitError):
    """A lexicon file is unreadable or not a well-formed translation table."""


class CorpusTooLarge(MTKitError):
    """A corpus is too large for EM's packed int64 sort keys."""


class ExternalProcessError(MTKitError):
    """An external translator process failed or broke the line protocol."""


class BadSyntheticSide(MTKitError):
    """A model generated a side that cannot be a sentence of a corpus."""


class BadPivot(MTKitError):
    """Pivot target coincides with a language already in the corpus."""


class LanguageMismatch(MTKitError):
    """Corpora that must share a language pair do not."""


# -- pipeline ----------------------------------------------------------

class ConfigValidationError(MTKitError):
    """Pipeline config failed validation; .problems lists each offence."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


class StepFailure(MTKitError):
    """A pipeline step failed; .step names it."""

    def __init__(self, step: str, cause: BaseException) -> None:
        super().__init__(f"step {step!r} failed: {cause}")
        self.step = step
        self.cause = cause
