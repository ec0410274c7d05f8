"""C1 (checkpoint/restore): snapshot cost and warm-resume payoff.

Section VII of the paper sells the virtual platform on *determinism* --
"every run is reproducible" -- and this bench quantifies what that buys
once runs can be checkpointed:

- **snapshot cost** scales with platform state: checkpoint size and
  save/restore latency are measured across RAM sizes (the dominant
  term), staying in the low-millisecond range for the default platform;
- **rewind beats re-run**: with a time-travel ring, landing on a cycle
  near the end of a long run costs only the replay from the nearest
  ring checkpoint, a multiple-times speedup over re-executing from
  reset;
- **warm campaigns beat cold ones**: a parameter sweep whose points
  share a long common prefix (boot + fill) is checkpointed once after
  the prefix and each point resumed from the snapshot, beating the
  cold-start sweep that re-executes the prefix per point.
"""

from __future__ import annotations

import time

from repro.snap import Snapshot, checkpoint
from repro.vp import SoC, SoCConfig
from repro.vp.debugger import Debugger

# RAM maps at 0 and the peripheral window opens at 0x8000, so 32768
# words is the largest legal RAM
RAM_SIZES = [2048, 8192, 32768]

# long prefix (fill RAM), short suffix (read back a seed-poked cell)
PREFIX_HEAVY = """
    li r1, 512
    li r2, 0
fill:
    sw r2, 0(r1)
    addi r1, r1, 1
    addi r2, r2, 3
    li r3, 3000
    blt r1, r3, fill
    lw r4, 100(r0)
    addi r4, r4, 1
    sw r4, 101(r0)
    halt
"""

LONG_LOOP = """
    li r1, 0
    li r2, 4000
loop:
    addi r1, r1, 1
    sw r1, 80(r0)
    addi r2, r2, -1
    bne r2, r0, loop
    halt
"""


def _timed(fn, repeat=3):
    best = float("inf")
    value = None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


class TestCheckpointCost:
    def test_size_and_latency_vs_ram(self, show, record_bench):
        rows = []
        headline = {}
        for ram_words in RAM_SIZES:
            soc = SoC(SoCConfig(n_cores=2, ram_words=ram_words,
                                quantum=8, backend="compiled"),
                      {0: PREFIX_HEAVY, 1: PREFIX_HEAVY})
            soc.run(until=2000)
            snap, save_s = _timed(lambda: checkpoint(soc))
            payload = snap.to_dict()

            def _restore():
                fresh = SoC(SoCConfig(n_cores=2, ram_words=ram_words,
                                      quantum=8, backend="compiled"),
                            {0: PREFIX_HEAVY, 1: PREFIX_HEAVY})
                fresh.restore(Snapshot.from_dict(payload))
                return fresh

            fresh, restore_s = _timed(_restore)
            assert fresh.sim.now == soc.sim.now
            rows.append([ram_words, snap.size_bytes(),
                         f"{save_s * 1e3:.2f}", f"{restore_s * 1e3:.2f}"])
            headline[ram_words] = (snap.size_bytes(), save_s, restore_s)

        show("C1: checkpoint cost vs RAM size", rows,
             ["ram_words", "snapshot_bytes", "save_ms", "restore_ms"])
        # size is RAM-dominated: 16x the RAM means several-times-larger
        # snapshots, and latency stays interactive
        assert headline[32768][0] > 4 * headline[2048][0]
        assert headline[32768][1] < 2.0 and headline[32768][2] < 2.0
        record_bench(
            snapshot_bytes_2k=headline[2048][0],
            snapshot_bytes_32k=headline[32768][0],
            save_ms_32k=headline[32768][1] * 1e3,
            restore_ms_32k=headline[32768][2] * 1e3)


class TestRewindLatency:
    def test_rewind_beats_rerun_from_reset(self, show, record_bench):
        soc = SoC(SoCConfig(n_cores=1, quantum=8, backend="compiled"),
                  {0: LONG_LOOP})
        dbg = Debugger(soc)
        dbg.enable_time_travel(interval=2000.0, capacity=16)
        dbg.run(until_time=10**9)  # to halt
        end = soc.sim.now
        target = end - 100  # "the bug was just before the end"

        def _rewind():
            dbg.rewind_to(target)
            return soc.sim.now

        landed, rewind_s = _timed(_rewind)
        assert landed <= target

        def _rerun():
            cold = SoC(SoCConfig(n_cores=1, quantum=8, backend="compiled"),
                       {0: LONG_LOOP})
            cold.start()
            while True:
                upcoming = cold.sim.peek_time()
                if upcoming is None or upcoming > target:
                    break
                cold.sim.step()
            return cold.sim.now

        relanded, rerun_s = _timed(_rerun)
        assert relanded == landed
        speedup = rerun_s / rewind_s
        show("C1: rewind-to-bug vs re-run from reset",
             [[f"{target:g}", f"{rewind_s * 1e3:.2f}",
               f"{rerun_s * 1e3:.2f}", f"{speedup:.1f}x"]],
             ["target_cycle", "rewind_ms", "rerun_ms", "speedup"])
        # the ring keeps the replay window to one interval; re-running
        # from reset replays the whole history
        assert speedup > 2.0
        record_bench(rewind_ms=rewind_s * 1e3, rerun_ms=rerun_s * 1e3,
                     rewind_speedup=speedup)


class TestWarmCampaign:
    def test_warm_resume_beats_cold_sweep(self, show, record_bench):
        programs = {0: PREFIX_HEAVY}
        config = SoCConfig(n_cores=1, quantum=8, backend="compiled")
        base = SoC(config, programs)
        base.run(until=9000)  # past the fill prefix, before the read-back
        snap = checkpoint(base)
        seeds = list(range(8))

        def _point(soc, seed):
            # the seed lands in a word read only after the shared prefix
            soc.bus.poke(100, seed)
            soc.run()
            return list(soc.ram.words)

        def _one_cold(seed):
            return _point(SoC(config, programs), seed)

        def _one_warm(seed):
            payload = snap.to_dict()  # what a sweep point would receive
            return _point(Snapshot.from_dict(payload).rebuild(), seed)

        cold, cold_s = _timed(lambda: [_one_cold(s) for s in seeds],
                              repeat=1)
        warm, warm_s = _timed(lambda: [_one_warm(s) for s in seeds],
                              repeat=1)
        # same sweep results either way: the poked seed flows through
        assert warm == cold
        speedup = cold_s / warm_s
        show("C1: warm-resume sweep vs cold-start sweep",
             [[len(seeds), f"{cold_s * 1e3:.1f}", f"{warm_s * 1e3:.1f}",
               f"{speedup:.1f}x"]],
             ["points", "cold_ms", "warm_ms", "speedup"])
        # every warm point skips the shared prefix
        assert speedup > 1.5
        record_bench(cold_ms=cold_s * 1e3, warm_ms=warm_s * 1e3,
                     warm_speedup=speedup)
