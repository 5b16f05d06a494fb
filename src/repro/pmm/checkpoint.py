"""Model checkpointing: save/load a trained PMM with its vocabularies.

The paper amortises PMM's training cost by reusing one model across
kernel releases and institutions ("potentially sharing the model weights
among different institutions", §6); that requires a durable, versioned
on-disk format.  Checkpoints are a single ``.npz`` holding the weight
arrays plus a JSON header with the architecture, the assembly
vocabulary, the syscall table fingerprint, and the calibrated decision
threshold.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.errors import ModelError
from repro.graphs.encode import AsmVocab, GraphEncoder
from repro.pmm.model import PMM, PMMConfig
from repro.syzlang.spec import SyscallTable

__all__ = ["save_pmm", "load_pmm"]

_FORMAT_VERSION = 1


def _table_fingerprint(table: SyscallTable) -> list[str]:
    return sorted(spec.full_name for spec in table.specs)


def save_pmm(
    path: str | Path,
    model: PMM,
    vocab: AsmVocab,
    table: SyscallTable,
) -> None:
    """Write ``model`` (+ vocab and table fingerprint) to ``path``."""
    path = Path(path)
    header = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "decision_threshold": model.decision_threshold,
        "vocab": sorted(
            vocab.token_to_id, key=lambda token: vocab.token_to_id[token]
        ),
        "syscalls": _table_fingerprint(table),
    }
    arrays = {
        f"param_{index:04d}": array
        for index, array in enumerate(model.state_arrays())
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path, header=np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        ), **arrays,
    )


def _read_archive(path: Path) -> tuple[dict, list[np.ndarray]]:
    """The JSON header and the parameter arrays of checkpoint ``path``."""
    try:
        # np.load opens a path itself and leaks the handle when the zip
        # is bad; a handle we own is closed on every exit.
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as archive:
            header = json.loads(bytes(archive["header"]).decode())
            arrays = [
                archive[key]
                for key in sorted(
                    k for k in archive.files if k.startswith("param_")
                )
            ]
    except (
        OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile,
        zlib.error,
    ) as error:
        raise ModelError(
            f"checkpoint {path} is unreadable: {type(error).__name__}: "
            f"{error}"
        ) from error
    if not isinstance(header, dict):
        raise ModelError(f"checkpoint {path} header is not a JSON object")
    return header, arrays


def load_pmm(
    path: str | Path, table: SyscallTable
) -> tuple[PMM, AsmVocab, GraphEncoder]:
    """Load a checkpoint and rebuild (model, vocab, encoder).

    ``table`` must carry at least the syscalls the model was trained
    with; a changed table would silently shift syscall embedding ids, so
    mismatches raise :class:`ModelError`.  So does any file that is not
    a well-formed checkpoint.
    """
    path = Path(path)
    if not path.exists():
        raise ModelError(f"checkpoint {path} does not exist")
    header, arrays = _read_archive(path)
    if header.get("format_version") != _FORMAT_VERSION:
        raise ModelError(
            f"unsupported checkpoint version "
            f"{header.get('format_version')!r}"
        )
    try:
        trained_on = list(header["syscalls"])
        token_to_id = {token: i for i, token in enumerate(header["vocab"])}
        config = PMMConfig(**header["config"])
        decision_threshold = float(header["decision_threshold"])
    except (KeyError, TypeError, ValueError) as error:
        raise ModelError(
            f"checkpoint {path} has a malformed header: "
            f"{type(error).__name__}: {error}"
        ) from error
    current = set(_table_fingerprint(table))
    missing = [name for name in trained_on if name not in current]
    if missing:
        raise ModelError(
            f"table is missing syscalls the checkpoint was trained with: "
            f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
        )
    vocab = AsmVocab(token_to_id=token_to_id)
    # Rebuild the encoder from the *training-time* syscall list so the
    # embedding ids line up even when the deployment table grew.
    encoder = GraphEncoder.from_names(vocab, trained_on)
    model = PMM(len(vocab), encoder.num_syscalls, config)
    model.load_state_arrays(arrays)
    model.decision_threshold = decision_threshold
    return model, vocab, encoder
