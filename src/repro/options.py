"""Engine-wide options, mirroring the relevant ``spatch`` command line flags.

The paper's listings use ``# spatch --c++=23`` / ``#spatch --c++`` pseudo
option lines inside the semantic patches; :class:`SpatchOptions` is the
Python-side equivalent, and the SmPL parser recognises those option lines and
folds them into the options attached to a parsed patch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


#: C++ standard levels the front end accepts for the ``--c++`` option.
CXX_LEVELS = (11, 14, 17, 20, 23, 26)


@dataclass(frozen=True)
class SpatchOptions:
    """Options controlling parsing and rule application.

    Attributes
    ----------
    cxx:
        ``None`` parses plain C; an integer (e.g. ``17`` or ``23``) enables
        the C++ subset of the front end (range-``for``, references, lambdas,
        qualified names, multi-index subscripts).  ``spatch --c++`` with no
        level maps to the newest supported level.
    extra_types:
        Additional identifiers to treat as type names when disambiguating
        declarations from expressions (the equivalent of Coccinelle's
        ``--macro-file`` style hints).
    attribute_names:
        Non ``__``-prefixed attribute keywords that should be recognised, as
        the paper notes Coccinelle requires declaring via ``attribute name``.
    apply_isomorphisms:
        Enable the built-in isomorphisms (commutative comparisons, redundant
        parentheses, ``E + 0`` equivalence).
    max_dots_statements:
        Safety bound on how many statements a single ``...`` may absorb.
    python_scripting:
        Allow ``script:python`` rules to execute.  Disabled engines treat
        script rules as matching nothing (useful for sandboxed runs).
    verbose:
        Emit informational diagnostics about rule application.
    """

    cxx: Optional[int] = None
    extra_types: tuple[str, ...] = field(default_factory=tuple)
    attribute_names: tuple[str, ...] = field(default_factory=tuple)
    apply_isomorphisms: bool = True
    max_dots_statements: int = 2000
    python_scripting: bool = True
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.cxx is not None and self.cxx not in CXX_LEVELS:
            raise ValueError(f"unsupported C++ level {self.cxx!r}; expected one of {CXX_LEVELS}")

    # -- convenience -----------------------------------------------------

    @property
    def is_cxx(self) -> bool:
        """True when the C++ subset of the front end is enabled."""
        return self.cxx is not None

    def with_cxx(self, level: int | None = 17) -> "SpatchOptions":
        """Return a copy of the options with the C++ level set."""
        return replace(self, cxx=level)

    @classmethod
    def from_spatch_line(cls, line: str, base: "SpatchOptions | None" = None) -> "SpatchOptions":
        """Parse a ``# spatch --c++=23`` style pseudo-option line.

        Unknown flags are ignored, matching spatch's permissiveness for
        comment-embedded option lines.
        """
        opts = base or cls()
        text = line.lstrip("#").strip()
        if text.startswith("spatch"):
            text = text[len("spatch"):].strip()
        for word in text.split():
            if word.startswith("--c++"):
                if "=" in word:
                    try:
                        level = int(word.split("=", 1)[1])
                    except ValueError:
                        level = CXX_LEVELS[-1]
                else:
                    level = CXX_LEVELS[-1]
                if level not in CXX_LEVELS:
                    # clamp to the closest supported level rather than failing
                    level = min(CXX_LEVELS, key=lambda lv: abs(lv - level))
                opts = replace(opts, cxx=level)
            elif word == "--verbose":
                opts = replace(opts, verbose=True)
            elif word == "--no-isos":
                opts = replace(opts, apply_isomorphisms=False)
        return opts


DEFAULT_OPTIONS = SpatchOptions()
