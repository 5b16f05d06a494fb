"""The four host wall-clock workloads, built only from the public API.

Each workload is a function ``prepare(seed, scale)`` that does the set-up
(kernel build, and for ``fuzz-pmm`` the PMM training) and returns the
measured phase as a zero-argument callable.  The measured phase returns
an :class:`Outcome`: how much work it did, which requests failed, and a
fingerprint of what it computed.  ``scale`` shrinks every budget (virtual
hours, examples, poll rounds) for the tests; the benchmark runs at 1.0.

All workloads run kernel 6.8 built with kernel seed 1; ``seed`` is the
campaign/workload seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.kernel import build_kernel
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig
from repro.rng import derive_seed
from repro.service import Request, ServiceServer, load_service, save_service
from repro.snowplow import (
    build_fuzz_loop,
    fuzz_campaign_config,
    fuzz_run_seed,
    train_pmm,
)

KERNEL_VERSION = "6.8"
KERNEL_SEED = 1
SERVICE_TENANTS = 4
SERVICE_ROUNDS = 20
SERVICE_STEP_S = 18.0
# Tenant campaign seeds 0..63 each survive this workload's 20 save/load
# rounds.  Not every seed does: a corpus program holding a text buffer
# with '#' serializes to syz text that no longer parses (the serializer
# does not escape it), so its service cannot be reloaded.
SERVICE_TENANT_SEEDS = 64
MODEL_SEED = 0


@dataclass
class Outcome:
    """What one measured phase did and computed."""

    ops: int
    requests: int = 0
    failed: int = 0
    fingerprint: object = None
    # Per-request latencies, in ms (``service-poll`` only).
    advance_ms: list[float] = field(default_factory=list)
    ckpt_ms: list[float] = field(default_factory=list)


def _scaled(value: float, scale: float, floor: float = 1.0) -> float:
    return max(value * scale, floor)


def _fuzz_fingerprint(stats) -> dict:
    return {
        "executions": stats.executions,
        "final_edges": stats.final_edges,
        "corpus_size": stats.corpus_size,
        "crashes": sorted(crash.signature for crash in stats.crashes),
    }


def _run_loop(loop) -> Outcome:
    stats = loop.run()
    return Outcome(
        ops=stats.executions,
        failed=stats.exec_timeouts,
        fingerprint=_fuzz_fingerprint(stats),
    )


def fuzz_oracle(seed: int, scale: float = 1.0) -> Callable[[], Outcome]:
    """``repro fuzz --size tiny --oracle --seed-corpus 10 --hours 2``."""
    kernel = build_kernel(KERNEL_VERSION, seed=KERNEL_SEED, size="tiny")
    config = fuzz_campaign_config(_scaled(2.0, scale, 0.02), seed, 10)
    loop = build_fuzz_loop(
        kernel, None, fuzz_run_seed(seed, kernel.version), config,
        oracle=True,
    )
    return lambda: _run_loop(loop)


def _train(kernel, seed: int, corpus: int, mutations: int, dim: int,
           epochs: int, examples: int):
    """``repro train`` with the given budget (same seed derivation)."""
    return train_pmm(
        kernel,
        seed=seed,
        corpus_size=corpus,
        dataset_config=DatasetConfig(
            mutations_per_test=mutations, seed=derive_seed(seed, "d")
        ),
        pmm_config=PMMConfig(dim=dim, seed=derive_seed(seed, "m")),
        train_config=TrainConfig(
            epochs=epochs, max_examples_per_epoch=examples,
            seed=derive_seed(seed, "t"),
        ),
    )


def fuzz_pmm(seed: int, scale: float = 1.0) -> Callable[[], Outcome]:
    """A small PMM trained on ``default``, then a PMM-localized campaign.

    The model is trained with a fixed seed, like a deployed ``repro
    train`` checkpoint; ``seed`` drives only the campaign.
    """
    kernel = build_kernel(KERNEL_VERSION, seed=KERNEL_SEED, size="default")
    trained = _train(
        kernel, MODEL_SEED, corpus=int(_scaled(20, scale, 4)),
        mutations=int(_scaled(25, scale, 5)), dim=16, epochs=1,
        examples=int(_scaled(80, scale, 8)),
    )
    config = fuzz_campaign_config(_scaled(1.5, scale, 0.02), seed, 10)
    loop = build_fuzz_loop(
        kernel, trained, fuzz_run_seed(seed, kernel.version), config,
    )
    return lambda: _run_loop(loop)


def pmm_train(seed: int, scale: float = 1.0) -> Callable[[], Outcome]:
    """``repro train --size tiny``: the whole call is measured."""
    kernel = build_kernel(KERNEL_VERSION, seed=KERNEL_SEED, size="tiny")
    epochs = 2
    examples = int(_scaled(120, scale, 8))

    def measure() -> Outcome:
        trained = _train(
            kernel, seed, corpus=int(_scaled(30, scale, 6)),
            mutations=int(_scaled(40, scale, 8)), dim=16, epochs=epochs,
            examples=examples,
        )
        steps = epochs * min(examples, len(trained.dataset.train))
        f1 = trained.validation.f1 if trained.validation is not None else 0.0
        return Outcome(ops=steps, fingerprint={"f1": round(f1, 6)})

    return measure


def _signature_digest(signature) -> str:
    payload = json.dumps(signature, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def service_poll(seed: int, scale: float = 1.0) -> Callable[[], Outcome]:
    """One closed-loop client polling a 4-tenant service.

    Each round advances the service clock, reads every job, then saves
    and reloads the whole service, as each ``repro serve``/``status``
    invocation does.  Jobs finish on the last round.  Tenant ``i`` runs
    campaign seed ``(4 * seed + i) % SERVICE_TENANT_SEEDS``.
    """
    rounds = int(_scaled(SERVICE_ROUNDS, scale, 2))
    server = ServiceServer(fleet_size=8)
    job_ids = []
    for tenant in range(SERVICE_TENANTS):
        response = server.handle(Request("POST", "/campaigns", {
            "tenant": f"tenant-{tenant}",
            "size": "tiny",
            "mode": "oracle",
            "hours": rounds * SERVICE_STEP_S / 3600.0,
            "seed": (SERVICE_TENANTS * seed + tenant) % SERVICE_TENANT_SEEDS,
            "seed_corpus": 10,
            "workers": 2,
            "shards": 2 if tenant < 2 else 1,
        }))
        if not response.ok:
            raise RuntimeError(f"submit failed: {response.body}")
        job_ids.append(response.body["job"]["job_id"])

    def measure() -> Outcome:
        nonlocal server
        outcome = Outcome(ops=0)
        state_dir = tempfile.mkdtemp(prefix="service-")
        try:
            for step in range(1, rounds + 1):
                start = time.perf_counter()
                responses = [server.handle(Request(
                    "POST", "/advance", {"until": step * SERVICE_STEP_S},
                ))]
                outcome.advance_ms.append(
                    1e3 * (time.perf_counter() - start)
                )
                responses += [
                    server.handle(Request("GET", f"/campaigns/{job_id}"))
                    for job_id in job_ids
                ]
                start = time.perf_counter()
                save_service(state_dir, server)
                server = load_service(state_dir)
                outcome.ckpt_ms.append(1e3 * (time.perf_counter() - start))
                outcome.requests += len(responses)
                outcome.failed += sum(not r.ok for r in responses)
            signatures = {}
            for job_id in job_ids:
                response = server.handle(
                    Request("GET", f"/campaigns/{job_id}/result")
                )
                outcome.requests += 1
                if not response.ok:
                    outcome.failed += 1
                    continue
                result = response.body["result"]
                outcome.ops += result["executions"]
                outcome.failed += result["degradation"]["exec_timeouts"]
                signatures[job_id] = _signature_digest(result["signature"])
            outcome.fingerprint = signatures
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        return outcome

    return measure


WORKLOADS: dict[str, Callable[..., Callable[[], Outcome]]] = {
    "fuzz-oracle": fuzz_oracle,
    "fuzz-pmm": fuzz_pmm,
    "pmm-train": pmm_train,
    "service-poll": service_poll,
}
