"""Loop-task outlining: payload layouts and capture plumbing (§4.1–4.2).

The paper's codegen isolates loop bodies into outlined functions whose free
variables travel as a packed pointer-array payload.  This module computes,
for each outlined region, the static :class:`~repro.runtime.payload.
PayloadLayout` it is compiled against:

* the launch-argument buffers its subtree references (``uses``);
* the locals captured from enclosing sequential ``pre`` code (``captures``,
  with declared slot kinds);
* the enclosing loop variables (``__iv0``, ``__iv1``, …) the body needs to
  reconstruct its position — real outlining passes these in the payload
  struct the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import OutliningError
from repro.codegen.canonical_loop import CanonicalLoop
from repro.runtime.payload import PayloadLayout


def iv_key(level: int) -> str:
    """Payload slot name of the enclosing loop variable at ``level``."""
    return f"__iv{level}"


def resolve_uses(loop: CanonicalLoop, arg_names: Sequence[str]) -> Tuple[str, ...]:
    """Launch-argument names a loop's own content references."""
    if loop.uses is None:
        return tuple(arg_names)
    unknown = [u for u in loop.uses if u not in arg_names]
    if unknown:
        raise OutliningError(
            f"loop {loop.name!r} uses undeclared launch args {unknown}; "
            f"declared: {list(arg_names)}"
        )
    return tuple(loop.uses)


def subtree_uses(loop: CanonicalLoop, arg_names: Sequence[str]) -> Tuple[str, ...]:
    """Union (stable order) of uses of ``loop`` and every nested loop."""
    seen = []
    node_loop = loop
    while True:
        for u in resolve_uses(node_loop, arg_names):
            if u not in seen:
                seen.append(u)
        if node_loop.nested is None:
            return tuple(seen)
        node_loop = node_loop.nested.loop


@dataclass(frozen=True)
class OutlinedTask:
    """Static metadata of one outlined function."""

    name: str
    #: Launch-arg buffer names in the payload.
    uses: Tuple[str, ...]
    #: Captured locals: (name, kind) pairs, outermost scope first.
    captures: Tuple[Tuple[str, str], ...]
    layout: PayloadLayout
    #: Slot names of the enclosing loop variables shipped as ``__iv``
    #: slots, outermost first (``iv_key(0)``, ``iv_key(1)``, ...).
    iv_keys: Tuple[str, ...]

    @property
    def depth(self) -> int:
        """Number of enclosing loop variables in the payload."""
        return len(self.iv_keys)

    @property
    def nargs(self) -> int:
        return len(self.layout)


def outline_task(
    name: str,
    uses: Sequence[str],
    captures: Sequence[Tuple[str, str]],
    depth: int,
) -> OutlinedTask:
    """Build the payload layout of an outlined function.

    Slot order: buffer uses, then captured locals, then enclosing loop
    variables — a fixed ABI both the packer (SIMD main) and unpacker
    (workers) agree on, like the aggregate struct in the paper's §4.1.
    """
    names = set()
    entries = []
    for u in uses:
        entries.append((u, "buf"))
        names.add(u)
    for cname, ckind in captures:
        if cname in names:
            raise OutliningError(f"capture {cname!r} shadows a payload entry")
        entries.append((cname, ckind))
        names.add(cname)
    iv_keys = tuple(iv_key(level) for level in range(depth))
    entries.extend((key, "i64") for key in iv_keys)
    return OutlinedTask(
        name=name,
        uses=tuple(uses),
        captures=tuple((n, k) for n, k in captures),
        layout=PayloadLayout.build(entries),
        iv_keys=iv_keys,
    )
