"""Resource (content policy) types as recorded by OpenWPM/Firefox.

The paper's per-type analyses (Tables 4a/4b, Figures 5 and 7) use the
resource types Firefox attaches to each request.  We model the same set
and attach the two properties the analysis keys on:

* whether a type can *dynamically load children* (the paper excludes
  depth-one nodes that cannot load additional content, §3.2), and
* a conventional file extension for synthesizing URLs.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Tuple


class ResourceType(enum.Enum):
    """Firefox content-policy types observed in the measurement."""

    MAIN_FRAME = "main_frame"
    SUB_FRAME = "sub_frame"
    SCRIPT = "script"
    STYLESHEET = "stylesheet"
    IMAGE = "image"
    IMAGESET = "imageset"
    FONT = "font"
    MEDIA = "media"
    WEBSOCKET = "websocket"
    XHR = "xmlhttprequest"
    BEACON = "beacon"
    CSP_REPORT = "csp_report"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def can_load_children(self) -> bool:
        """True when a node of this type may trigger further requests.

        An ``<img>`` cannot load anything besides the image itself; a
        script, frame, stylesheet (via ``@import``/``url()``), XHR (via the
        code handling the response), or socket can pull in more content.
        """
        return self in _DYNAMIC_TYPES

    @property
    def extension(self) -> str:
        """A conventional URL file extension for this type."""
        return _EXTENSIONS[self]


_DYNAMIC_TYPES = frozenset(
    {
        ResourceType.MAIN_FRAME,
        ResourceType.SUB_FRAME,
        ResourceType.SCRIPT,
        ResourceType.STYLESHEET,
        ResourceType.XHR,
        ResourceType.WEBSOCKET,
    }
)

_EXTENSIONS = {
    ResourceType.MAIN_FRAME: "html",
    ResourceType.SUB_FRAME: "html",
    ResourceType.SCRIPT: "js",
    ResourceType.STYLESHEET: "css",
    ResourceType.IMAGE: "png",
    ResourceType.IMAGESET: "webp",
    ResourceType.FONT: "woff2",
    ResourceType.MEDIA: "mp4",
    ResourceType.WEBSOCKET: "",
    ResourceType.XHR: "json",
    ResourceType.BEACON: "gif",
    ResourceType.CSP_REPORT: "",
    ResourceType.OTHER: "bin",
}

#: Types that the horizontal analysis treats as "static leaves" at depth one.
STATIC_LEAF_TYPES: Tuple[ResourceType, ...] = tuple(
    t for t in ResourceType if not t.can_load_children
)


@lru_cache(maxsize=256)
def parse_resource_type(value: str) -> ResourceType:
    """Parse a stored string back into a :class:`ResourceType`.

    Accepts both the enum value (``"xmlhttprequest"``) and name
    (``"XHR"``); raises ``ValueError`` otherwise.
    """
    try:
        return ResourceType(value)
    except ValueError:
        try:
            return ResourceType[value.upper()]
        except KeyError:
            raise ValueError(f"unknown resource type: {value!r}") from None
