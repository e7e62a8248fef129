"""Kernel manifest: pins the generated codec kernels by digest.

The codegen kernels (DESIGN.md §11) exist only in memory — rendered
from the schema registry and ``exec``'d at first use — so "do not
hand-edit generated code" needs an on-disk anchor.  This module
renders :mod:`repro.core.codec.kernel_manifest`, a generated file
listing the SHA-256 of every (codec × schema) kernel source inside a
``repro-lint`` generated region.  Two gates hang off it:

* ``repro-lint`` RL006 verifies the region digest, so hand edits to
  the manifest are flagged statically;
* ``tests/test_repro_lint.py`` re-renders every kernel and compares
  digests, so any change to the emitters or schemas that alters
  kernel output must be acknowledged by regenerating::

      PYTHONPATH=src python -m repro.core.codec.manifest --write

That acknowledgment is the point: kernel output changes only with a
schema/emitter change, reviewed next to a refreshed manifest — never
via a quiet edit.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.core.codec import codegen, schema

#: emitter names known to the codegen layer ("pb" is interpretive-only).
CODECS = ("fb", "asn")

MANIFEST_RELPATH = "src/repro/core/codec/kernel_manifest.py"

_HEADER = '''"""GENERATED FILE - kernel source digests. Do not edit by hand.

Regenerate with::

    PYTHONPATH=src python -m repro.core.codec.manifest --write

Each entry pins the SHA-256 of one generated (codec x schema) kernel
source.  repro-lint rule RL006 verifies the region digest below;
tests/test_repro_lint.py verifies the entries against a fresh render.
"""

'''


def kernel_digests() -> Dict[str, str]:
    """``"codec:kind:name" → sha256`` for every supported kernel."""
    digests: Dict[str, str] = {}
    for codec in CODECS:
        for procedure, msg_class in schema.message_schema_keys():
            sch = schema.envelope_schema(procedure, msg_class)
            if sch is None:
                continue
            source = codegen.build_kernel_source(codec, sch)
            if source is None:
                continue
            key = f"{codec}:env:{sch.name}"
            digests[key] = hashlib.sha256(source.encode("utf-8")).hexdigest()
        for name in schema.payload_schema_names():
            sch = schema.payload_schema(name)
            if sch is None:
                continue
            source = codegen.build_kernel_source(codec, sch)
            if source is None:
                continue
            key = f"{codec}:pay:{name}"
            digests[key] = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return digests


def render_manifest() -> str:
    """Full text of kernel_manifest.py for the current registry."""
    digests = kernel_digests()
    body = ["KERNEL_SHA256 = {"]
    for key in sorted(digests):
        body.append(f'    "{key}": "{digests[key]}",')
    body.append("}")
    region = hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()
    lines = [
        _HEADER.rstrip("\n"),
        "",
        f"# repro-lint: generated begin sha256={region}",
        *body,
        "# repro-lint: generated end",
        "",
    ]
    return "\n".join(lines)


def manifest_path(root: Optional[Path] = None) -> Path:
    if root is None:
        # src/repro/core/codec/manifest.py → repo root is 5 levels up.
        root = Path(__file__).resolve().parents[4]
    return root / MANIFEST_RELPATH


def write_manifest(root: Optional[Path] = None) -> Path:
    path = manifest_path(root)
    path.write_text(render_manifest(), encoding="utf-8")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.core.codec.manifest",
        description="render or refresh the generated kernel digest manifest",
    )
    parser.add_argument(
        "--write", action="store_true", help="rewrite kernel_manifest.py in place"
    )
    parser.add_argument("--root", default=None, help="repo root (default: inferred)")
    args = parser.parse_args(argv)
    root = Path(args.root) if args.root else None
    if args.write:
        path = write_manifest(root)
        print(f"wrote {path}")
        return 0
    sys.stdout.write(render_manifest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
