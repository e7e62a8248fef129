"""What harness and RIC child share: the pipe framing and the window page.

Messages are length-prefixed pickles.

Both ends are this benchmark's own code, started by it, so unpickling
what arrives is unpickling what we wrote.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, BinaryIO, Optional

_LEN = struct.Struct("<I")

#: The in-flight window's shared page: one 8-byte delivered counter per
#: E2 node, written by the RIC child's indication taps, read by the RAN.
ACK_SLOT = struct.Struct("<Q")
ACK_BYTES = 4096
#: OID the flood nodes announce for their one opaque RAN function.
FLOOD_OID = "1.3.6.1.4.1.53148.1.1.2.999"


def send(stream: BinaryIO, message: Any) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_LEN.pack(len(data)))
    stream.write(data)
    stream.flush()


def recv(stream: BinaryIO) -> Optional[Any]:
    """Next message, or ``None`` once the other end has closed."""
    header = stream.read(_LEN.size)
    if len(header) < _LEN.size:
        return None
    (length,) = _LEN.unpack(header)
    data = stream.read(length)
    if len(data) < length:
        return None
    return pickle.loads(data)
