"""Use case: ease introduction of modern C++ STL constructs.

Paper, Section 3, *"Ease introduction of modern C++ STL constructs"*: replace
a *raw loop* that linearly scans a container for a value (setting a flag,
possibly printing diagnostics, then breaking) by a call to ``std::find``.
A second rule, ``depends on`` the first, adds the required headers next to an
include the file already has.
"""

from __future__ import annotations

from ..api import SemanticPatch
from ..options import SpatchOptions


PAPER_LISTING = r"""
#spatch --c++=17
@rl@
type T;
constant k;
identifier elem,result,arrid;
@@
- bool result = false;
...
- for ( T &elem : arrid )
-   if ( \( elem == k \| k == elem \) )
-   {
-     ...
-     result = true;
-     break;
-   }
+ const bool result =
+   (find(begin(arrid),end(arrid),k) !=
+   end(arrid));

@ah depends on rl@
@@
#include <iostream>
+ #include <algorithm>
+ #include <functional>
"""


def paper_listing() -> str:
    """The semantic patch exactly as printed in the paper."""
    return PAPER_LISTING


def raw_loop_to_find_patch(anchor_header: str = "iostream",
                           qualify_std: bool = False) -> SemanticPatch:
    """The raw-loop → ``std::find`` patch.

    ``anchor_header`` is the already-included header next to which
    ``<algorithm>``/``<functional>`` are added; ``qualify_std`` emits
    ``std::find``/``std::begin``/``std::end`` instead of relying on ADL, which
    is the more robust spelling for production use.
    """
    find = "std::find" if qualify_std else "find"
    begin = "std::begin" if qualify_std else "begin"
    end = "std::end" if qualify_std else "end"
    text = rf"""
#spatch --c++=17
@rl@
type T;
constant k;
identifier elem,result,arrid;
@@
- bool result = false;
...
- for ( T &elem : arrid )
-   if ( \( elem == k \| k == elem \) )
-   {{
-     ...
-     result = true;
-     break;
-   }}
+ const bool result =
+   ({find}({begin}(arrid),{end}(arrid),k) !=
+   {end}(arrid));

@ah depends on rl@
@@
#include <{anchor_header}>
+ #include <algorithm>
+ #include <functional>
"""
    return SemanticPatch.from_string(text, name="raw-loop-to-find",
                                     options=SpatchOptions(cxx=17))
