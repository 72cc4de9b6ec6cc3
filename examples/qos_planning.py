"""QoS planning: mixed traffic classes and spectrum.

Extends the paper's uniform-2-kbps world to a realistic mix: 80% of
survivors need voice-grade links (2 kbps floor) and 20% need video-grade
links (2.5 Mbps floor, e.g. rescue-team video uplinks).  Then:

1. plan the deployment with approAlg (the rate floors flow through the
   coverage graph automatically);
2. audit the plan under reuse-1 interference, allocate channels, and show
   how many channels restore link quality.

Run:  python examples/qos_planning.py
"""

from repro import appro_alg, paper_scenario
from repro.channel.interference import audit_interference
from repro.network.spectrum import allocate_channels
from repro.util.tables import format_table
from repro.workload.fat_tailed import FatTailedWorkload


def main() -> None:
    problem = paper_scenario(
        num_users=800,
        num_uavs=10,
        scale="bench",
        seed=17,
        workload=FatTailedWorkload(
            rate_classes=((0.8, 2_000.0), (0.2, 2.5e6)),
        ),
    )
    voice = sum(
        1 for u in problem.graph.users if u.min_rate_bps < 1e6
    )
    print(
        f"scenario: {problem.num_users} users "
        f"({voice} voice @ 2 kbps, {problem.num_users - voice} video "
        f"@ 2.5 Mbps), {problem.num_uavs} UAVs\n"
    )

    result = appro_alg(problem, s=2, gain_mode="fast",
                       max_anchor_candidates=8)
    served_video = sum(
        1
        for u in result.deployment.assignment
        if problem.graph.users[u].min_rate_bps >= 1e6
    )
    print(
        f"approAlg serves {result.served} users "
        f"({result.served / problem.num_users:.0%}), including "
        f"{served_video} video users\n"
    )

    # Interference audit: reuse-1 vs increasingly aggressive channelisation
    # (wider coupling range -> more neighbours forced onto distinct
    # channels -> more spectrum, cleaner links).
    reuse1 = audit_interference(problem, result.deployment)
    rows = [
        ["reuse-1 (all co-channel)", 1,
         f"{reuse1.still_satisfied}/{reuse1.served}",
         f"{reuse1.mean_sinr_loss_db:.1f} dB"],
    ]
    for coupling in (1000.0, 2000.0, 3000.0):
        plan = allocate_channels(
            problem, result.deployment, coupling_range_m=coupling
        )
        audited = audit_interference(
            problem, result.deployment, channel_plan=plan
        )
        rows.append(
            [f"colour within {coupling / 1000:.0f} km",
             plan.num_channels,
             f"{audited.still_satisfied}/{audited.served}",
             f"{audited.mean_sinr_loss_db:.1f} dB"],
        )
    print(format_table(
        ["spectrum plan", "channels", "links meeting QoS", "mean SINR loss"],
        rows,
        title="interference audit: spectrum vs link quality",
    ))


if __name__ == "__main__":
    main()
