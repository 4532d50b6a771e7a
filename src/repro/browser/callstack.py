"""JavaScript (and CSS) call stacks attached to requests.

OpenWPM records the JS call stack that triggered each request.  The paper's
tree builder inspects *only the latest entry* — the function/script URL that
actually issued the request — and makes that script the parent node
(§3.2).  Firefox reports CSS-triggered loads through the same mechanism
(the paper cites the relevant Bugzilla entry), so stylesheet-initiated
requests also carry a "stack" whose top is the stylesheet URL.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple


@dataclass(frozen=True)
class StackFrame:
    """One call-stack entry: where in which script the call happened."""

    func_name: str
    script_url: str
    line: int = 1
    column: int = 1

    def format(self) -> str:
        """OpenWPM-style ``func@url:line:col`` serialization."""
        return f"{self.func_name}@{self.script_url}:{self.line}:{self.column}"


@dataclass(frozen=True)
class CallStack:
    """An ordered stack; index 0 is the *latest* (innermost) entry."""

    frames: Tuple[StackFrame, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.frames)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def top(self) -> Optional[StackFrame]:
        """The latest entry — the one the paper's builder uses."""
        return self.frames[0] if self.frames else None

    @property
    def initiating_script_url(self) -> Optional[str]:
        """URL of the script/stylesheet that issued the request."""
        top = self.top
        return top.script_url if top is not None else None

    def format(self) -> str:
        """Serialize the stack, newest first, one frame per line."""
        return "\n".join(frame.format() for frame in self.frames)

    @classmethod
    @lru_cache(maxsize=1 << 14)
    def parse(cls, serialized: str) -> "CallStack":
        """Parse the :meth:`format` representation back into a stack.

        Memoized: stacks are immutable, and a store repeats each one for
        every request the same script issues.
        """
        frames = []
        for line in serialized.splitlines():
            line = line.strip()
            if not line:
                continue
            func, _, rest = line.partition("@")
            url, _, tail = rest.rpartition(":")
            url2, _, line_no = url.rpartition(":")
            frames.append(
                StackFrame(
                    func_name=func,
                    script_url=url2 or url,
                    line=int(line_no) if line_no.isdigit() else 1,
                    column=int(tail) if tail.isdigit() else 1,
                )
            )
        return cls(frames=tuple(frames))

    @classmethod
    def for_initiator(
        cls, script_url: str, func_name: str = "load", ancestors: Tuple[str, ...] = ()
    ) -> "CallStack":
        """Build a stack whose top is ``script_url``.

        ``ancestors`` (outer callers, oldest last) are included for realism;
        the builder never walks past the top, exactly as the paper chooses
        not to.
        """
        frames = [StackFrame(func_name=func_name, script_url=script_url)]
        frames.extend(
            StackFrame(func_name="caller", script_url=url) for url in ancestors
        )
        return cls(frames=tuple(frames))


EMPTY_STACK = CallStack()
