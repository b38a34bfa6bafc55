"""Whole-file writes that never leave a half-written file behind."""

import contextlib
import os
import uuid


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Write a temp file beside ``path``, then move it onto ``path``.

    ``mode`` and ``kwargs`` go to ``open``.  The temp file sits in the same
    directory, so ``os.replace`` is a rename within one file system: a
    reader sees the old file or the whole new one, never a prefix.  If the
    body or the rename raises, the temp file is removed and ``path`` is
    left as it was; a failed rename raises its ``OSError`` subclass naming
    ``path`` alone.  There is no fsync, so a power loss can still lose the
    new contents.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
