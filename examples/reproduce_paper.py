#!/usr/bin/env python
"""Full reproduction: regenerate every figure and table of the paper.

Produces ASCII renderings of Figures 1-4 and Table I from a freshly
generated dataset, exactly as the benchmarks assert them.

Run:  python examples/reproduce_paper.py
"""

from repro.experiments import run_all


def main() -> None:
    results = run_all()
    print(results.render())

    print("\n" + "=" * 72)
    print("\nHeadline comparison vs the paper:")
    fig2 = results.fig2
    print(
        f"  Fig 2: {fig2.n_distinct_winners} distinct winners "
        f"(paper: 58); top config wins {fig2.top_winner[1]} "
        f"(paper: 32), {fig2.dominance_ratio:.1f}x the runner-up (paper: >3x)"
    )
    fig3 = results.fig3
    counts = fig3.components_for_threshold
    print(
        f"  Fig 3: {counts[0.8]}/{counts[0.9]}/{counts[0.95]} components "
        "for 80/90/95% variance (paper: 4/8/15)"
    )
    tech, budget, score = results.fig4.best_score()
    print(
        f"  Fig 4: best cell {tech} @ {budget} configs = {score * 100:.1f}% "
        "(paper: decision tree, 96.6%)"
    )
    t1 = results.table1
    print(
        "  Table I ceilings: "
        + " / ".join(f"{t1.ceiling(b) * 100:.2f}%" for b in t1.budgets)
        + "  (paper: 92.99 / 94.98 / 95.37 / 96.61%)"
    )


if __name__ == "__main__":
    main()
