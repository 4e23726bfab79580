"""Quickstart: build a small hierarchical quantum program, compile it
for a Multi-SIMD machine, and inspect the schedule.

Run:  python examples/quickstart.py
"""

from itertools import islice

from repro import (
    MultiSIMD,
    ProgramBuilder,
    SchedulerConfig,
    compile_and_schedule,
)


def main() -> None:
    # --- 1. Write a program in the Scaffold-style builder DSL ----------
    pb = ProgramBuilder()

    # A subroutine: entangle a pair and phase it.
    bell = pb.module("bell_phase")
    p = bell.param_register("p", 2)
    bell.h(p[0]).cnot(p[0], p[1]).t(p[1])

    # The entry module: two Toffolis sharing a control (the paper's
    # Figure 4 kernel), then the subroutine, iterated.
    main_mod = pb.module("main")
    q = main_mod.register("q", 5)
    main_mod.toffoli(q[0], q[1], q[2])
    main_mod.toffoli(q[0], q[3], q[4])
    main_mod.call("bell_phase", [q[1], q[3]], iterations=10)
    for qb in q:
        main_mod.meas_z(qb)

    program = pb.build("main")

    # --- 2. Compile for a Multi-SIMD(k=2, d=inf) machine ----------------
    machine = MultiSIMD(k=2, local_memory=8)
    result = compile_and_schedule(
        program, machine, SchedulerConfig("lpfs")
    )

    # --- 3. Inspect ------------------------------------------------------
    print(f"machine:            {machine}")
    print(f"total gates:        {result.total_gates}")
    print(f"critical path:      {result.critical_path} cycles")
    print(f"schedule length:    {result.schedule_length} cycles")
    print(f"comm-aware runtime: {result.runtime} cycles")
    print(f"naive runtime:      {result.naive_runtime} cycles")
    print(f"parallel speedup:   {result.parallel_speedup:.2f}x")
    print(f"comm-aware speedup: {result.comm_aware_speedup:.2f}x")

    # The entry module's fine-grained schedule, timestep by timestep.
    sched = result.schedules[result.program.entry]
    print(f"\nfirst 8 timesteps of '{result.program.entry}' "
          f"({sched.algorithm}, k={sched.k}):")
    for t, (moves, regions) in enumerate(
        islice(sched.iter_timesteps(), 8)
    ):
        cells = [
            f"r{r}:[" + " ".join(
                sched.operation(n).gate for n in nodes
            ) + "]"
            for r, nodes in regions
        ]
        moved = f" +{len(moves)} moves" if moves else ""
        print(f"  t={t:<3d} {' '.join(cells)}{moved}")


if __name__ == "__main__":
    main()
