"""Checkpoint/resume for GMR runs (crash tolerance, tier 1).

A checkpoint is a complete snapshot of one run's loop state at a
generation boundary: the generation number, the population, the champion,
the per-generation history, the RNG state, and the evaluator (whose tree
cache, statistics, and ES ``best_prev_full`` marker all matter for exact
replay).  Because a generation is fully determined by that state, a run
resumed from the checkpoint of generation *g* reproduces the remaining
generations -- and the final :class:`~repro.gp.engine.RunResult` history
-- bit-identically to the uninterrupted run.

The on-disk format is deliberately paranoid, because checkpoints exist
precisely for the moments when processes die mid-write:

* **atomic**: payloads are written to a sibling temp file, fsynced, and
  renamed into place, so a crash never leaves a half-written checkpoint
  under the real name;
* **versioned**: files open with an 8-byte magic that encodes the format
  version; readers refuse every version but their own;
* **integrity-checked**: a SHA-256 digest over the payload is stored in
  the header and verified on load, so silent truncation or corruption
  surfaces as :class:`CheckpointError`, never as a garbage resume;
* **ring-retained**: with ``keep > 1`` every save also lands in a
  retention ring (``<path>.g<generation>`` siblings, pruned oldest
  first), and :func:`load_checkpoint_resilient` falls back to the newest
  verifiable predecessor when the canonical envelope is corrupt --
  one flipped bit no longer bricks a campaign's resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import socket
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.individual import Individual

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.gp.engine import GenerationRecord, RunResult

#: Format version encoded in the file magic; bump on layout changes.
#: This build reads exactly this version: older checkpoints and results
#: are refused with :class:`CheckpointError`, never migrated.
CHECKPOINT_VERSION = 6

#: File magics: 7 identifying bytes plus the format version byte.
_CHECKPOINT_MAGIC = b"GMRCKPT" + bytes([CHECKPOINT_VERSION])
_RESULT_MAGIC = b"GMRRSLT" + bytes([CHECKPOINT_VERSION])

_DIGEST_BYTES = hashlib.sha256().digest_size


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied."""


@dataclass
class RunCheckpoint:
    """Everything generation ``generation`` needs to continue a run.

    Attributes:
        seed: The run's RNG seed (resume re-adopts it).
        generation: Index of the last completed generation.
        elapsed: Wall-clock seconds spent up to this snapshot, summed
            across resumed segments.
        config_repr: ``repr`` of the :class:`~repro.gp.config.GMRConfig`
            that produced the snapshot; resume refuses a different one.
        rng_state: ``random.Random.getstate()`` of the run RNG.
        population: The evaluated population of ``generation``.
        best: The champion tracked so far.
        history: Per-generation records up to and including ``generation``.
        evaluator: The run's evaluator with its tree cache, statistics and
            ES ``best_prev_full`` marker (compiled functions are dropped on
            pickling and rebuilt lazily, exactly as in the parallel layer).
        trace_seq: Trace sequence number at snapshot time; a resumed run
            fast-forwards its tracer here so a stitched JSONL trace keeps
            strictly increasing sequence numbers across process lifetimes.
        domain: Name of the problem domain the run was revising (see
            :mod:`repro.domains`); resume refuses a different one.
        domain_spec_hash: The registered domain's
            :meth:`~repro.domains.registry.DomainSpec.spec_hash` at save
            time, or ``""`` when the domain was not registered (hand-built
            engines).  Resume refuses a checkpoint whose domain spec has
            changed since the snapshot: the search space is different, so
            "continuing" would silently produce a run neither spec
            describes.
        stop_reason: Why the run stopped when this envelope was written
            (``budget:*`` / ``signal:*``, see :mod:`repro.gp.governor`),
            or None for an ordinary cadence snapshot.  Informational:
            resume behaves identically either way -- the resuming
            engine's own governor decides whether to continue.
    """

    seed: int
    generation: int
    elapsed: float
    config_repr: str
    rng_state: Any
    population: list[Individual]
    best: Individual
    history: list["GenerationRecord"]
    evaluator: GMRFitnessEvaluator
    trace_seq: int = 0
    domain: str = "river"
    domain_spec_hash: str = ""
    stop_reason: str | None = None


def _sweep_stale_temps(
    path: str | os.PathLike[str], keep: str | None = None
) -> None:
    """Remove leftover ``<path>.tmp.*`` siblings from dead writers.

    A process killed between writing its temp file and the rename leaves
    a ``*.tmp.<pid>`` orphan that no ``finally`` block will ever reach;
    every save sweeps them so they cannot accumulate over a long
    campaign.  Only temps of *this* path are touched (per-seed files
    have one writer at a time, so anything matching is stale), and the
    current writer's own temp (``keep``) is spared.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    prefix = os.path.basename(path) + ".tmp."
    try:
        names = sorted(os.listdir(directory))
    except OSError:  # pragma: no cover - directory being created/removed
        return
    for name in names:
        if not name.startswith(prefix):
            continue
        stale = os.path.join(directory, name)
        if keep is not None and stale == keep:
            continue
        try:
            os.remove(stale)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def _atomic_write(path: str | os.PathLike[str], blob: bytes) -> None:
    """Write ``blob`` to ``path`` via a sibling temp file and rename."""
    directory = os.path.dirname(os.fspath(path)) or "."
    temp_path = f"{os.fspath(path)}.tmp.{os.getpid()}"
    _sweep_stale_temps(path, keep=temp_path)
    try:
        with open(temp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except OSError as exc:
        raise CheckpointError(
            f"could not write checkpoint to {path!s}: {exc}"
        ) from exc
    finally:
        if os.path.exists(temp_path):  # rename failed; do not litter
            try:
                os.remove(temp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    # Make the rename itself durable.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fsync on dirs may be unsupported
        pass
    finally:
        os.close(dir_fd)


def _encode(obj: object, magic: bytes) -> bytes:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    return magic + digest + payload


def _dump(obj: object, path: str | os.PathLike[str], magic: bytes) -> None:
    _atomic_write(path, _encode(obj, magic))


def _load(path: str | os.PathLike[str], magic: bytes, kind: str) -> Any:
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"could not read {kind} {path!s}: {exc}") from exc
    header = len(magic) + _DIGEST_BYTES
    if len(blob) < header or blob[: len(magic) - 1] != magic[:-1]:
        raise CheckpointError(f"{path!s} is not a {kind} file")
    if blob[len(magic) - 1] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path!s} uses {kind} format version {blob[len(magic) - 1]}, "
            f"this build reads only version {CHECKPOINT_VERSION}"
        )
    digest = blob[len(magic) : header]
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(f"{path!s} failed its integrity check (corrupt?)")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(f"could not unpickle {kind} {path!s}: {exc}") from exc


def _ring_file(path: str | os.PathLike[str], generation: int) -> str:
    """Retention-ring sibling of ``path`` for ``generation``."""
    return f"{os.fspath(path)}.g{generation:09d}"


def ring_files(path: str | os.PathLike[str]) -> list[str]:
    """Existing retention-ring siblings of ``path``, newest first."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    prefix = os.path.basename(path) + ".g"
    entries: list[tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        if not name.startswith(prefix):
            continue
        suffix = name[len(prefix):]
        if not suffix.isdigit():
            continue
        entries.append((int(suffix), os.path.join(directory, name)))
    entries.sort(reverse=True)
    return [ring_path for __, ring_path in entries]


def _prune_ring(path: str | os.PathLike[str], keep: int) -> None:
    """Deterministically drop ring entries beyond the newest ``keep``."""
    retain = keep if keep > 1 else 0
    for stale in ring_files(path)[retain:]:
        try:
            os.remove(stale)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def save_checkpoint(
    checkpoint: RunCheckpoint, path: str | os.PathLike[str], keep: int = 1
) -> None:
    """Atomically persist a :class:`RunCheckpoint` to ``path``.

    With ``keep > 1`` the envelope is also copied into the retention
    ring (a ``<path>.g<generation>`` sibling), and the ring is pruned to
    the newest ``keep`` entries -- so the newest ``keep`` *distinct*
    generation snapshots survive on disk and
    :func:`load_checkpoint_resilient` can fall back through them when
    the canonical file is corrupted.  ``keep <= 1`` keeps the historical
    single-file behaviour and prunes any ring left by a larger previous
    setting.
    """
    blob = _encode(checkpoint, _CHECKPOINT_MAGIC)
    _atomic_write(path, blob)
    if keep > 1:
        _atomic_write(_ring_file(path, checkpoint.generation), blob)
    _prune_ring(path, keep)


def load_checkpoint(path: str | os.PathLike[str]) -> RunCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises:
        CheckpointError: Unreadable file, wrong magic, unsupported
            version, failed integrity check, or non-checkpoint payload.
    """
    checkpoint = _load(path, _CHECKPOINT_MAGIC, "checkpoint")
    if not isinstance(checkpoint, RunCheckpoint):
        raise CheckpointError(
            f"{path!s} holds a {type(checkpoint).__name__}, not a RunCheckpoint"
        )
    return checkpoint


def load_checkpoint_resilient(
    path: str | os.PathLike[str]
) -> RunCheckpoint:
    """Load ``path``, falling back through its retention ring.

    When the canonical envelope fails verification (magic/SHA-256
    mismatch, truncation, unreadable file), each ring sibling is tried
    newest first and the first verifiable one is returned with a
    warning -- the run resumes from the newest surviving snapshot
    instead of being bricked by one corrupt file.  When nothing
    verifiable survives (including the ``keep <= 1`` no-ring case), the
    canonical file's original :class:`CheckpointError` is raised, so
    callers keep their loud-failure contract.
    """
    try:
        return load_checkpoint(path)
    except CheckpointError as primary:
        for candidate in ring_files(path):
            try:
                checkpoint = load_checkpoint(candidate)
            except CheckpointError:
                continue
            warnings.warn(
                f"checkpoint {os.fspath(path)!s} failed verification "
                f"({primary}); resuming from retention-ring snapshot "
                f"{candidate!s} (generation {checkpoint.generation})",
                RuntimeWarning,
                stacklevel=2,
            )
            return checkpoint
        raise


#: Advisory lockfile name inside a claimed checkpoint directory.
CLAIM_FILENAME = ".claim"


class CheckpointLockError(CheckpointError):
    """A checkpoint directory is claimed by another live writer."""


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a pid on this host."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # e.g. EPERM: someone else's live process
        return True
    return True


def _read_claim(path: str) -> tuple[bytes, dict] | None:
    """The claim file's raw bytes and parsed payload, or None if gone.

    An unreadable or torn payload (a claimant died between creating the
    file and writing it) parses to ``{}``, which the staleness rule
    treats as stale.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        payload = {}
    if not isinstance(payload, dict):
        payload = {}
    return raw, payload


def _claim_is_stale(payload: dict, host: str) -> bool:
    """The stale-claim takeover rule.

    A claim is stale when its payload is torn/unreadable, or when it
    was written by a process *on this host* that is no longer alive
    (the SIGKILLed-server case).  A claim from another host is never
    treated as stale -- liveness cannot be verified across hosts, so
    the conservative answer is "still owned".
    """
    pid = payload.get("pid")
    if not isinstance(pid, int) or isinstance(pid, bool):
        return True
    if payload.get("host") != host:
        return False
    return not _pid_alive(pid)


@dataclass
class CheckpointClaim:
    """An advisory ownership claim on one checkpoint directory.

    Holding the claim means this process is the directory's only
    writer: campaign resume, ``_atomic_write`` renames, and
    retention-ring pruning are all safe from interleaving with a
    second resumer.  The claim is identified by a random token, not
    the pid, so two threads of one process still conflict (each job
    must claim its own directory).  Release with :meth:`release`;
    claims left behind by a killed process are taken over by the next
    claimant via the stale rule in :func:`claim_checkpoint_dir`.
    """

    directory: str
    token: str
    pid: int
    host: str

    @property
    def path(self) -> str:
        return os.path.join(self.directory, CLAIM_FILENAME)

    def payload(self) -> bytes:
        record = {"host": self.host, "pid": self.pid, "token": self.token}
        return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")

    def held(self) -> bool:
        """Whether the directory's claim file still carries our token."""
        current = _read_claim(self.path)
        return current is not None and current[1].get("token") == self.token

    def release(self) -> None:
        """Drop the claim if it is still ours (idempotent, best-effort)."""
        if not self.held():
            return
        try:
            os.remove(self.path)
        except OSError:  # pragma: no cover - already gone
            pass


def _write_claim_file(fd: int, blob: bytes) -> None:
    with os.fdopen(fd, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())


def _try_claim(claim: CheckpointClaim) -> bool:
    """One attempt to take the directory; False means a live owner.

    The protocol is append-free and rename-safe:

    1. ``O_CREAT | O_EXCL`` creates the claim file atomically; exactly
       one racing claimant wins.
    2. An existing claim is read and judged by the stale rule.  A live
       owner ends the attempt.
    3. A stale claim is removed *only if its bytes are unchanged* since
       we judged it (so we never remove a fresh claim that replaced it
       in between), and the loop returns to step 1 -- where, again,
       exactly one racing taker-over wins the ``O_EXCL`` create.
    """
    path = claim.path
    blob = claim.payload()
    while True:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            current = _read_claim(path)
            if current is None:
                continue  # owner released between our checks; try again
            raw, payload = current
            if payload.get("token") == claim.token:
                return True  # already ours (retried after a torn write)
            if not _claim_is_stale(payload, claim.host):
                return False
            verify = _read_claim(path)
            if verify is None or verify[0] != raw:
                continue  # claim changed while we judged it; re-judge
            try:
                os.remove(path)
            except FileNotFoundError:  # pragma: no cover - lost the race
                pass
            continue
        _write_claim_file(fd, blob)
        return True


def claim_checkpoint_dir(
    directory: str | os.PathLike[str],
    wait: float = 0.0,
    poll_interval: float = 0.05,
) -> CheckpointClaim:
    """Claim exclusive write ownership of a checkpoint directory.

    Two processes resuming the same checkpoint directory -- a double
    job submission, or a restarted server racing a still-dying worker
    -- would interleave ``_atomic_write`` renames and retention-ring
    pruning.  The claim is an advisory lockfile (``.claim``) holding
    ``{host, pid, token}``; a second claimant is refused while the
    owner is alive, and takes over when the owner is provably dead on
    this host (or the claim file is torn) -- the stale-claim takeover
    rule that lets a relaunched server resume the jobs its SIGKILLed
    predecessor was running.

    Args:
        directory: Checkpoint directory (created if missing).
        wait: Seconds to keep retrying against a live owner before
            giving up (0 refuses immediately).  Waiting covers the
            restarted-server-racing-a-dying-worker window: the old
            owner's release or death is picked up on the next poll.
        poll_interval: Delay between retries while waiting.

    Returns:
        The held :class:`CheckpointClaim`; call ``release()`` when done.

    Raises:
        CheckpointLockError: The directory is claimed by a live owner
            (after ``wait`` seconds, if waiting).
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    claim = CheckpointClaim(
        directory=directory,
        token=os.urandom(16).hex(),
        pid=os.getpid(),
        host=socket.gethostname(),
    )
    deadline: float | None = None
    while True:
        if _try_claim(claim):
            return claim
        if wait <= 0:
            break
        if deadline is None:
            deadline = time.monotonic() + wait
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(poll_interval, remaining))
    current = _read_claim(claim.path)
    owner = current[1] if current else {}
    raise CheckpointLockError(
        f"checkpoint directory {directory!s} is claimed by a live writer "
        f"(host={owner.get('host')!r}, pid={owner.get('pid')!r}); "
        "refusing to resume it concurrently -- interleaved writers "
        "corrupt the retention ring. Stop the other process, or wait "
        "for it to release the claim."
    )


def save_result(result: "RunResult", path: str | os.PathLike[str]) -> None:
    """Atomically persist a completed run's result (campaign resume)."""
    _dump(result, path, _RESULT_MAGIC)


def load_result(path: str | os.PathLike[str]) -> "RunResult":
    """Load a result written by :func:`save_result` (integrity-checked)."""
    from repro.gp.engine import RunResult

    result = _load(path, _RESULT_MAGIC, "run result")
    if not isinstance(result, RunResult):
        raise CheckpointError(
            f"{path!s} holds a {type(result).__name__}, not a RunResult"
        )
    return result


def checkpoint_file(directory: str | os.PathLike[str], seed: int) -> str:
    """Canonical mid-run checkpoint path for ``seed`` under ``directory``."""
    return os.path.join(os.fspath(directory), f"run-{seed}.ckpt")


def result_file(directory: str | os.PathLike[str], seed: int) -> str:
    """Canonical completed-result path for ``seed`` under ``directory``."""
    return os.path.join(os.fspath(directory), f"run-{seed}.result")
