#!/usr/bin/env python3
"""Consensus ranking of movies with uncertain relevance scores.

A recommender produces, for each movie, a relevance score and a probability
that the movie is relevant at all (tuple-level uncertainty).  Different
possible worlds therefore disagree both on *which* movies make the Top-k and
on their *order*.  This example treats the problem as rank aggregation over
the possible worlds, exactly the framing of the paper:

* the order-sensitive consensus answers (intersection metric, Spearman
  footrule, Kendall tau via pivoting) are computed with the polynomial
  algorithms of Section 5;
* the classical deterministic rank-aggregation algorithms (Borda, footrule
  aggregation, Kemeny) are run on the explicit list of possible-world
  rankings for comparison -- feasible here because the database is small, and
  a nice illustration that the consensus answer generalises classical rank
  aggregation to weighted, exponentially-many voters.

Run it with ``python examples/movie_rank_aggregation.py``.
"""

from __future__ import annotations

from repro.andxor.enumeration import enumerate_worlds
from repro.consensus.topk import (
    approximate_topk_kendall,
    expected_topk_footrule_distance,
    expected_topk_intersection_distance,
    mean_topk_footrule,
    mean_topk_intersection,
    mean_topk_symmetric_difference,
)
from repro.consensus.topk.kendall import expected_topk_kendall_distance
from repro.session import QuerySession
from repro.rankagg.borda import borda_aggregation
from repro.rankagg.footrule import optimal_footrule_aggregation
from repro.rankagg.kemeny import exact_kemeny_aggregation
from repro.workloads.scenarios import movie_rating_scenario

K = 3


def main() -> None:
    scenario = movie_rating_scenario(movie_count=8, rng=99)
    database = scenario.database
    # One query session serves every consensus query below: the rank matrix,
    # membership vector and pairwise-preference matrix are computed once and
    # shared across the four distances (and the evaluations further down).
    session = QuerySession(database.tree)
    print(f"Scenario: {scenario.description}\n")

    print("Presence probabilities and scores:")
    for alternative in sorted(
        database.alternatives(), key=lambda a: -a.effective_score()
    ):
        probability = database.presence_probability(alternative.key)
        print(
            f"  {str(alternative.key):10s} score {alternative.effective_score():6.2f} "
            f"probability {probability:.2f}"
        )

    # --- consensus answers over the probabilistic database -----------------
    print(f"\nConsensus Top-{K} answers (Section 5):")
    consensus_answers = {
        "mean, symmetric difference": mean_topk_symmetric_difference(
            session, K
        )[0],
        "mean, intersection metric": mean_topk_intersection(session, K)[0],
        "mean, Spearman footrule": mean_topk_footrule(session, K)[0],
        "approx, Kendall tau (pivot)": approximate_topk_kendall(session, K),
    }
    for name, answer in consensus_answers.items():
        print(f"  {name:30s}: {', '.join(map(str, answer))}")

    # --- classical rank aggregation over the explicit possible worlds ------
    print("\nClassical rank aggregation over the explicit possible worlds")
    print("(every possible world votes with its probability as weight):")
    distribution = enumerate_worlds(database.tree)
    full_rankings = []
    all_keys = set(database.keys())
    for world, probability in distribution:
        ranking = list(world.top_k(len(world)))
        # Classical aggregators need full rankings over the same universe;
        # put absent movies at the bottom in a fixed order.
        missing = sorted(all_keys - set(ranking), key=str)
        full_rankings.append((tuple(ranking + missing), probability))

    borda = borda_aggregation(full_rankings)[:K]
    footrule_classic, _ = optimal_footrule_aggregation(full_rankings)
    kemeny, _ = exact_kemeny_aggregation(full_rankings)
    print(f"  Borda count                   : {', '.join(map(str, borda))}")
    print(f"  footrule aggregation          : {', '.join(map(str, footrule_classic[:K]))}")
    print(f"  Kemeny optimal (brute force)  : {', '.join(map(str, kemeny[:K]))}")

    # --- evaluate everything with the paper's expected-distance yardstick --
    print(f"\nExpected distances of each Top-{K} answer to the random world's Top-{K}:")
    candidates = dict(consensus_answers)
    candidates["classical Borda prefix"] = tuple(borda)
    candidates["classical Kemeny prefix"] = tuple(kemeny[:K])
    header = f"  {'answer':30s} | {'E[d_I]':>8s} | {'E[d_F]':>8s} | {'E[d_K]':>8s}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for name, answer in candidates.items():
        d_i = expected_topk_intersection_distance(session, answer, K)
        d_f = expected_topk_footrule_distance(session, answer, K)
        d_k = expected_topk_kendall_distance(session, answer, K)
        print(f"  {name:30s} | {d_i:8.4f} | {d_f:8.4f} | {d_k:8.4f}")

    print(
        "\nEach consensus answer minimises its own column; classical "
        "aggregators applied to the enumerated worlds come close but need "
        "exponential input, which is precisely the gap the paper's "
        "polynomial-time algorithms close."
    )
    info = session.cache_info()
    print(
        f"\nSession cache: {info['hits']} hits / {info['misses']} misses "
        f"across {len(candidates) * 3 + 4} queries "
        f"(backend: {info['backend']}) -- the rank matrix and preference "
        "matrix were computed once and shared."
    )


if __name__ == "__main__":
    main()
