#!/usr/bin/env python3
"""Quickstart: three application styles, three tool flows, one 4-PE SMP.

The paper surveys three ways MPSoC software gets written -- sequential C
(fed to MAPS), target-independent task graphs (HOPES/CIC), and real-time
stream pipelines (time-triggered or data-driven executives).  Each style
keeps its own flow; this script runs one small application through each.

Run:  python examples/quickstart.py
"""

from repro.hopes import (
    ArchInfo, CICApplication, CICTask, CICTranslator, ProcessorInfo,
)
from repro.maps import MapsFlow, PlatformSpec
from repro.rt import PipelineSpec, run_data_driven, run_time_triggered

N_PES = 4

SEQUENTIAL_C = """
int samples[128];
int filtered[128];
int main() {
  int i;
  int energy = 0;
  for (i = 0; i < 128; i++) { samples[i] = (i * 17 + 5) % 64; }
  for (i = 0; i < 128; i++) { filtered[i] = samples[i] * 3 / 2; }
  for (i = 0; i < 128; i++) { energy += filtered[i] * filtered[i]; }
  return energy;
}
"""


def make_cic():
    cic = CICApplication("counter")
    cic.add_task(CICTask("producer", """
        int n;
        int task_go() { write_port(0, n * n); n += 1; return 0; }
        """, out_ports=["out"]))
    cic.add_task(CICTask("consumer", """
        int task_go() { emit(read_port(0)); return 0; }
        """, in_ports=["in"]))
    cic.connect("producer", "out", "consumer", "in")
    return cic


def main() -> None:
    print("=" * 64)
    print("1. Sequential C through the MAPS flow (section IV)")
    print("=" * 64)
    maps = MapsFlow(PlatformSpec.symmetric(N_PES)).run(
        SEQUENTIAL_C, app_name="dsp_kernel")
    print(f"   tasks found:          {len(maps.partition.task_graph)}")
    print(f"   parallelizable loops: "
          f"{len(maps.partition.parallelizable_tasks)}")
    print(f"   semantics preserved:  {maps.semantics_preserved}")
    print(f"   measured speedup:     {maps.measured_speedup:.2f}x "
          f"on {N_PES} PEs")

    print()
    print("=" * 64)
    print("2. A CIC task graph through the HOPES flow (section V)")
    print("=" * 64)
    arch = ArchInfo(f"smp{N_PES}", model="shared", processors=[
        ProcessorInfo(f"pe{index}", "smp") for index in range(N_PES)])
    target = CICTranslator(make_cic(), arch).translate()
    execution = target.run(6)
    print(f"   target:       {target.target_name}")
    print(f"   mapping:      {target.mapping}")
    print(f"   sink output:  {execution.output_of('consumer')}")

    print()
    print("=" * 64)
    print("3. A stream pipeline on both real-time executives (section III)")
    print("=" * 64)
    pipeline = PipelineSpec(period=10.0)
    for stage in ("sample", "filter", "output"):
        pipeline.add_stage(stage, 2.0)
    tt = run_time_triggered(pipeline, jobs=50)
    dd = run_data_driven(pipeline, jobs=50)
    print(f"   time-triggered: {tt.delivered_ok}/50 delivered, "
          f"{tt.internal_corruptions} internal corruptions")
    print(f"   data-driven:    {dd.delivered_ok}/50 delivered, "
          f"{dd.internal_corruptions} internal corruptions")
    print()
    print("Done. See the other examples for each flow in depth.")


if __name__ == "__main__":
    main()
