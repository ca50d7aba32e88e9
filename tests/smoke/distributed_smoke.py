"""Distributed campaign smoke run: two shared-dir workers, one SIGKILLed mid-run.

Usage (from the repository root)::

    PYTHONPATH=src python tests/smoke/distributed_smoke.py WORKDIR

Two ``python -m repro worker`` processes serve one queue directory, and one
of them is SIGKILLed after both have completed a cell.  The survivor must
reclaim the victim's leases and finish the queue.  The merged rows must be
canonical-JSON-identical to a ``SerialExecutor`` run of the same campaign,
with no duplicate cell ids: the idempotence property the shared-dir backend
rests on.  The merged campaign lands in ``WORKDIR/out`` (for ``python -m
repro report``).  Exits nonzero on any failed assertion.

The file name keeps it out of tier-1 collection; CI's ``distributed-smoke``
job runs it.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.api.config import RunConfig
from repro.lab.backends import SharedDirBackend, SharedDirQueue
from repro.lab.campaign import Campaign, SweepGrid, run_campaign
from repro.lab.executor import SerialExecutor


def canon(rows):
    return [
        json.dumps(r.deterministic_dict(), sort_keys=True, separators=(",", ":"))
        for r in rows
    ]


def main(workdir: str) -> None:
    # Grid size, measured on a 2-CPU host: a fresh worker needs about 0.5 s
    # from spawn to its first completion, and by the time w0 has completed its
    # first cell w1 has completed 83-145 of these 2,025.  That leaves more
    # than 10x margin for the kill to land mid-run.
    campaign = Campaign(
        name="dist-smoke",
        specs=["minimum"],
        inputs=SweepGrid.parse("0:45", dimension=2),
        engines=("python",),
        configs=(RunConfig(trials=2),),
        seed=7,
    )
    cells = campaign.expand()
    serial = run_campaign(
        campaign,
        os.path.join(workdir, "serial"),
        cache_dir=None,
        executor=SerialExecutor(),
    )

    queue_dir = os.path.join(workdir, "queue")
    queue = SharedDirQueue(queue_dir, lease_ttl=2.0)
    queue.enqueue(cells)

    def spawn(worker_id):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--queue-dir", queue_dir, "--worker-id", worker_id,
             "--lease-ttl", "2.0", "--poll", "0.05", "--max-idle", "60"],
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )

    wanted = {cell.cell_id for cell in cells}  # done/ also holds .tmp- files
    done_by = {}  # cell id -> worker, from the done/<id> markers read so far

    def wait_for_done_marker(worker_id, timeout=120):
        deadline = time.time() + timeout
        while time.time() < deadline:
            for cell_id in wanted & queue.done_ids() - set(done_by):
                with open(os.path.join(queue_dir, "done", cell_id)) as handle:
                    done_by[cell_id] = json.load(handle)["worker"]
            if worker_id in done_by.values():
                return
            time.sleep(0.02)
        raise AssertionError(f"{worker_id} completed no cell within {timeout}s")

    # Order the workers so both provably execute: w1 completes a cell before
    # w0 exists, and w0 is killed right after its own first completion.
    survivor = spawn("w1")
    wait_for_done_marker("w1")
    victim = spawn("w0")
    wait_for_done_marker("w0")
    victim.send_signal(signal.SIGKILL)
    victim.wait()
    remaining = len(wanted - queue.done_ids())
    print(f"killed w0 with {len(cells) - remaining}/{len(cells)} cells done")
    assert remaining > 0, (
        f"w1 finished all {len(cells)} cells before w0 was killed, so the kill "
        f"tested nothing; enlarge the grid"
    )

    # the coordinator only merges: participate=False proves the external
    # survivor reclaimed the victim's leases and finished the queue
    out_dir = os.path.join(workdir, "out")
    backend = SharedDirBackend(queue_dir=queue_dir, participate=False, poll=0.1)
    run = run_campaign(campaign, out_dir, cache_dir=None, executor=backend)
    assert survivor.wait(timeout=120) == 0

    assert canon(run.results) == canon(serial.results), \
        "merged rows differ from the serial run"
    ids = [r.cell_id for r in run.results]
    assert len(set(ids)) == len(ids), "duplicate cell ids after resume"
    with open(os.path.join(out_dir, "provenance.json")) as handle:
        provenance = json.load(handle)
    executed = {w: s["executed"] for w, s in provenance["workers"].items()}
    print("merged rows identical to serial; per-worker cells:", executed)
    assert "w1" in executed and executed["w1"] > 0, executed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} WORKDIR")
    main(sys.argv[1])
