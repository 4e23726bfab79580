"""The paper's Figure 4 walkthrough: why module flattening matters.

Two dependent Toffoli gates are compiled twice — once with each
Toffoli kept as a blackbox module (coarse scheduling serializes them),
once flattened into a single leaf (fine-grained scheduling overlaps
their decomposed networks).

Run:  python examples/toffoli_flattening.py
"""

from repro import (
    MultiSIMD,
    ProgramBuilder,
    SchedulerConfig,
    compile_and_schedule,
)


def build_program():
    pb = ProgramBuilder()
    tof = pb.module("toffoli_box")
    p = tof.param_register("p", 3)
    tof.toffoli(p[0], p[1], p[2])

    main = pb.module("main")
    q = main.register("q", 5)
    # Both Toffolis share control q[0] => a data dependency.
    main.call("toffoli_box", [q[0], q[1], q[2]])
    main.call("toffoli_box", [q[0], q[3], q[4]])
    return pb.build("main")


def main() -> None:
    machine = MultiSIMD(k=2)
    print("Figure 4 — two dependent Toffolis on Multi-SIMD(2, inf)\n")
    print(f"{'scheduler':<10} {'modularity':<11} {'cycles':>6}")
    for alg in ("rcp", "lpfs"):
        for label, fth in (("modular", 0), ("flattened", 2 ** 62)):
            result = compile_and_schedule(
                build_program(),
                machine,
                SchedulerConfig(alg),
                fth=fth,
            )
            print(f"{alg:<10} {label:<11} {result.schedule_length:>6}")
    print(
        "\nThe paper reports 24 cycles modular vs 21 flattened: keeping"
        "\nthe Toffolis as blackboxes hides the parallelism between"
        "\ntheir decomposed Clifford+T networks. The same gap appears"
        "\nhere (exact cycle counts differ with scheduler packing)."
    )

    # Show the overlapped region of the flattened schedule.
    result = compile_and_schedule(
        build_program(), machine, SchedulerConfig("lpfs"), fth=2 ** 62
    )
    sched = result.schedules["main"]
    print(f"\nflattened LPFS schedule ({sched.length} cycles):")
    for t, (_, regions) in enumerate(sched.iter_timesteps()):
        cells = ["".ljust(26)] * sched.k
        for r, nodes in regions:
            ops = " ".join(
                f"{sched.operation(n).gate}"
                f"({','.join(q.register + str(q.index) for q in sched.operation(n).qubits)})"
                for n in nodes
            )
            cells[r] = ops.ljust(26)
        print(f"  {t + 1:>2}  " + " | ".join(cells))


if __name__ == "__main__":
    main()
