"""Reading ``repro-spatch --profile`` stderr back in tests.

Every profile line is ``# section.key: value``
(:func:`repro.engine.report.profile_lines`); :func:`profile_of` maps each
``section.key`` to its value text.
"""

import re

PROFILE_LINE = re.compile(r"^# ([a-z_.]+): (.*)$")


def profile_of(err: str) -> dict[str, str]:
    """``{"section.key": "value"}`` for every profile line of ``err``."""
    return dict(match.groups() for line in err.splitlines()
                if (match := PROFILE_LINE.match(line)))
