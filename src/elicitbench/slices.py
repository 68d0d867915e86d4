"""`simulate`'s slices: contiguous ranges of the question indices, one per CPU.

`made_in_slices` writes slice 0 in this process and forks one child for each
later slice; each slice writes its own part files, which are then joined
into the outputs. A question depends only on the seed and its index, so the
files do not depend on the number of slices.

Only `simulate` imports this module (from inside `make_suite`): loaded with
the package, its code and `signal`'s enums raised the peak RSS of every other
stage by about 0.1 MB.
"""
from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, NoReturn

from .errors import EXIT_INTERRUPTED, ConfigError, ElicitBenchError
from .jsonlio import append_rows


def cpu_slices(n_questions: int) -> list[range]:
    """Contiguous slices of the question indices, one per CPU this process may run on.

    There are never more slices than questions, and there is one slice where
    the process cannot fork: on a platform without `os.fork`, or when it runs
    other threads, which a forked child would not have.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return [range(n_questions)]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    k = min(cpus, n_questions)
    return [range(i * n_questions // k, (i + 1) * n_questions // k) for i in range(k)]


class _SliceError(ElicitBenchError):
    """An error that a forked slice met: the CLI prints it and exits with the slice's code."""

    def __init__(self, message: str, exit_code: int) -> None:
        super().__init__(message)
        self.exit_code = exit_code


_REPORT_BYTES = 4096  # a pipe holds at least this much, so a failing slice never blocks on it


def _run_slice(mask: set, report: int, write: Callable[[], None]) -> NoReturn:
    """In a forked child: write() the slice, then exit; a failure's message goes to `report`.

    The child ignores SIGINT: the parent, which a Ctrl-C reaches, stops it
    with SIGTERM, which raises KeyboardInterrupt once, so the slice's temp
    files are removed as the parent's are. A failure the CLI reports (an
    ElicitBenchError or an OSError) exits with the CLI's code for it; any
    other exception prints its traceback and exits 1.
    """
    def stop_once(signum: int, frame: object) -> None:  # a later signal cannot cut the clean-up
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt

    code = 1
    try:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, stop_once)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            write()
            code = 0
        except KeyboardInterrupt:
            code = EXIT_INTERRUPTED  # stopped by SIGTERM: the CLI's code for a Ctrl-C
        except (ElicitBenchError, OSError) as exc:
            code = exc.exit_code if isinstance(exc, ElicitBenchError) else ConfigError.exit_code
            os.write(report, str(exc).encode("utf-8")[:_REPORT_BYTES])
        except Exception:
            sys.excepthook(*sys.exc_info())
    finally:  # never return into the parent's code, nor flush its buffered output
        os._exit(code)


def made_in_slices(slices: list[range], write: Callable[..., None], *outputs: Path) -> None:
    """Write the outputs by `write(indices, *paths)`, called once for each slice.

    Slice k writes its part of each output, `<output>.<pid>.part<k>` beside
    it: this process writes slice 0 and a forked child each later slice. A
    slice's failure is raised here (KeyboardInterrupt for an interrupted
    slice). Once every slice is written, the rows of the later parts are
    appended to each output's slice-0 part in slice order
    (`jsonlio.append_rows`), and only when every output is joined are those
    parts renamed into place: a failure leaves every old output as it was,
    however many slices there are. When this returns or raises, each child
    still running is stopped and waited for, and every part file is removed.
    """
    stamp = os.getpid()
    parts = [[path.with_name(f"{path.name}.{stamp}.part{k}") for k in range(len(slices))]
             for path in outputs]  # each output's parts, in slice order
    children: dict[int, tuple[range, int]] = {}  # running child -> its slice, its report pipe
    try:
        for k, indices in enumerate(slices[1:], 1):
            report, report_end = os.pipe()
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # the mask as it is
            try:
                # A Ctrl-C waits until the child has its handlers and is in `children`.
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
                child = os.fork()
                if child == 0:
                    _run_slice(mask, report_end, partial(write, indices, *(p[k] for p in parts)))
                children[child] = (indices, report)
            except OSError:  # no child was made
                os.close(report)
                raise
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(report_end)
        write(slices[0], *(p[0] for p in parts))
        for child, (indices, report) in list(children.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
            del children[child]
            with open(report, "rb") as pipe:
                message = pipe.read().decode("utf-8", "replace")
            if code == EXIT_INTERRUPTED:
                raise KeyboardInterrupt
            if code:
                raise _SliceError(message or f"questions {indices.start} to {indices.stop - 1} "
                                  f"were not made: their process ended with status {code}",
                                  code if message else 1)
        for first, *rest in parts:
            append_rows(first, rest)
        for (first, *_), path in zip(parts, outputs):
            os.replace(first, path)
    finally:
        # A child reaped just before an interrupt is still listed: it is gone, not an error.
        for child in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGTERM)
        for child, (_, report) in children.items():
            with contextlib.suppress(ChildProcessError):
                os.waitpid(child, 0)
            os.close(report)
        for part in chain.from_iterable(parts):
            part.unlink(missing_ok=True)
