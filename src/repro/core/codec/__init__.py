"""Pluggable encoding schemes over a generic value model.

The paper identifies the encoding/decoding algorithm as an orthogonal
abstraction of E2 (§4.3) and supports both ASN.1 PER and Google
FlatBuffers, selectable independently for the outer E2AP layer and the
inner E2SM layer.  This package reproduces that design:

* every message lowers to a *generic value tree* (dict/list/scalars),
* a :class:`~repro.core.codec.base.Codec` turns trees into bytes and back,
* codecs register by name in a global registry so new schemes can be
  added without touching the SDK (forward compatibility, §4.3).

A codec's ``encode``/``decode`` is its generic walker.  In front of it,
:mod:`repro.core.codec.schema` derives a wire schema from every message
dataclass (the single declaration of its shape), and
:mod:`repro.core.codec.codegen` compiles each schema, for the ``fb``
and ``asn`` codecs, into a specialized kernel with fused struct packs
and unrolled field access and one entry point per direction: an E2AP
message is encoded from its dataclass and routed back to it
(``Codec.decode_route``), an E2SM payload encoded and decoded as its
tree.  A kernel declines only with ``None``, and the walker answers;
any decoder refuses a frame with :class:`CodecError` alone.
``with codegen.interpretive():`` selects the walkers alone as the
differential-testing oracle.  ``pb`` is interpretive-only.  See DESIGN.md §11.

Three codecs ship, matching the cost models measured in the paper:

======== ====================== ==========================================
name     modelled after         cost profile
======== ====================== ==========================================
``asn``  ASN.1 aligned PER      compact wire size; bit-level work on both
                                encode and decode
``fb``   Google FlatBuffers     +30-40 B fixed overhead; cheap encode;
                                lazy zero-copy reads instead of decode
``pb``   Protocol Buffers       between the two (FlexRAN baseline)
======== ====================== ==========================================
"""

from repro.core.codec.base import (
    Codec,
    CodecError,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.core.codec.bitio import BitReader, BitWriter
from repro.core.codec import codegen, schema
from repro.core.codec.codegen import interpretive, kernels_enabled
from repro.core.codec.per import PerCodec
from repro.core.codec.flat import FlatCodec, FlatView
from repro.core.codec.protobuf import ProtobufCodec

__all__ = [
    "Codec",
    "CodecError",
    "available_codecs",
    "get_codec",
    "register_codec",
    "BitReader",
    "BitWriter",
    "PerCodec",
    "FlatCodec",
    "FlatView",
    "ProtobufCodec",
    "codegen",
    "schema",
    "interpretive",
    "kernels_enabled",
]
