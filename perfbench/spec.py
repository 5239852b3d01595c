"""Workload table and metric names shared by the runner and its children.

Kept free of numpy so the runner process stays light; every library call
happens in a child process started with the thread settings listed here.
"""

DEFAULT_SEED = 20240817

# An untraced run is a sequence of pairs: the same inputs run once on the
# code under test (src/) and once on the pinned copy in baseline/, one
# right after the other.
#
# name -> draws per study, BLAS threads, study worker threads and the
# fewest pairs a run takes. A pair's src/baseline ratio varied with a
# coefficient of about 0.04 on quad64, 0.07 on rates, 0.10 on single64
# and 0.15 on lasso32. Two pairs (one with src first, one with baseline
# first) is what the run time allows, given 22 runs per workload in
# under an hour; the shorter single64 repetitions get three.
WORKLOADS = {
    "quad64": {"draws": 10_000, "blas_threads": 1, "workers": 2, "min_pairs": 2},
    "rates": {"draws": 1000, "blas_threads": 2, "workers": 1, "min_pairs": 2},
    "lasso32": {"draws": 1, "blas_threads": 1, "workers": 1, "min_pairs": 2},
    "single64": {"draws": 60, "blas_threads": 1, "workers": 1, "min_pairs": 3},
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# An untraced repetition sets the workload's problems up once in the
# timed study and then again, after it, until its set-ups have used this
# many CPU seconds; its setup_cpu_s is the median of them. One set-up
# takes 15 to 30 ms on quad64, lasso32 and single64; with one set-up per
# repetition, quad64's run medians of setup_s spread by 0.42 over ten
# seeds, with the extra ones by 0.22. rates (0.8 s) sets up once.
SETUP_CPU_BUDGET_S = 0.3

# CPU seconds of the pinned baseline per workload: medians of its
# repetitions in one long run per workload (set-up: of 15 set-ups in one
# process) on the host described in README.md. A time metric is the pair's
# ratio (src over baseline) times the baseline's figure here, so it reads
# as the time the code under test takes on a host where the baseline
# takes these times. Change them only together with the baseline.
BASELINE_CPU_S = {
    "quad64": {"cpu_s": 7.31, "setup_cpu_s": 0.0240, "loop_cpu_s": 6.91},
    "rates": {"cpu_s": 8.35, "setup_cpu_s": 0.846, "loop_cpu_s": 7.50},
    "lasso32": {"cpu_s": 6.30, "setup_cpu_s": 0.0139, "loop_cpu_s": 6.28},
    "single64": {"cpu_s": 2.89, "setup_cpu_s": 0.0240, "loop_cpu_s": 2.86},
}

# Times are CPU seconds of a repetition's process (all threads): on a
# shared host the wall clock swings with CPU steal, which CPU time leaves
# out. The host's speed still drifts by up to 2x within minutes, and the
# pairing cancels that drift. The wall-clock and unpaired figures are
# printed and reported for information.
END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "draws_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}
UNPAIRED = {
    "wall_s": "s",
    "setup_wall_s": "s",
    "draws_per_s": "1/s",
    "raw_cpu_s": "s",
    "baseline_cpu_s": "s",
}

PER_LAYER = {
    "problem.build_s": "s",
    "problem.builds": "count",
    "spectral.decompose_s": "s",
    "spectral.to_spectral_calls": "count",
    "rules.table_builds": "count",
    "rules.tables_s": "s",
    "rules.tables_mb": "MB",
    "rules.select_s": "s",
    "accum.sum_calls": "count",
    "accum.sum_terms": "count",
    "accum.sum_s": "s",
    "study.run_s": "s",
    "study.self_s": "s",
    "study.peak_alloc_mb": "MB",
    "study.export_s": "s",
    "study.export_mb": "MB",
    "lasso.solves": "count",
    "lasso.solve_s": "s",
    "lasso.iterations": "count",
    "lasso.columns": "count",
    "lasso.zero_column_share": "share",
    "lasso.gdf_calls": "count",
    "lasso.gdf_s": "s",
    "lasso.distinct_support_share": "share",
    "lasso.unconverged_columns": "count",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "problem.builds",
    "spectral.to_spectral_calls",
    "rules.table_builds",
    "accum.sum_calls",
    "accum.sum_terms",
    "lasso.solves",
    "lasso.iterations",
    "lasso.columns",
    "lasso.gdf_calls",
    "lasso.unconverged_columns",
)
