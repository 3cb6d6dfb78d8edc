"""The benchmark's workloads, as CLI config overrides built from a base seed.

Each workload is one ``subtrack.cli`` entry point with a fixed configuration;
only the simulation seeds come from the benchmark's ``--seed``.  The base seed
is reduced modulo ``SEED_POOL`` so every input has stored reference values.
"""

from dataclasses import dataclass

SEED_POOL = 16


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str               # "run_experiment" or "sweep_rank"
    overrides: tuple
    algos: tuple
    n_seeds: int
    ranks: tuple = ()        # sweep_rank only

    def sim_seeds(self, base_seed):
        """Simulation seeds for a benchmark seed; disjoint across the pool."""
        first = (base_seed % SEED_POOL) * self.n_seeds
        return tuple(range(first, first + self.n_seeds))

    def overrides_for(self, base_seed, out_dir):
        seeds = ",".join(str(s) for s in self.sim_seeds(base_seed))
        return [*self.overrides, f"run.algos={','.join(self.algos)}",
                f"run.seeds={seeds},", f"run.out_dir={out_dir}"]

    def planned_runs(self, base_seed):
        """Keys of the tracker runs one experiment makes: (algo or rank, seed)."""
        keys = self.ranks if self.entry == "sweep_rank" else self.algos
        return [(key, seed) for key in keys for seed in self.sim_seeds(base_seed)]


WORKLOADS = {
    w.name: w for w in (
        # The paper's headline experiment at paper scale; the only workload
        # with the backward pass, fusion and bulk CSV output.
        Workload(
            name="paper_rough",
            entry="run_experiment",
            overrides=("sim.preset=rough", "sim.n_taps=64", "sim.n_steps=5000",
                       "sim.n_train=1000", "sim.r_true=12", "tracker.rank=12",
                       "tracker.order=1"),
            algos=("lms", "asrmae", "dfb_asrmae"),
            n_seeds=2),
        # Acceptance criterion 8's long records, where PAST-d and the forward
        # filter dominate; no fusion, almost no CSV.  One seed, so a 45 s run
        # holds at least two sweeps.
        Workload(
            name="rank_sweep",
            entry="sweep_rank",
            overrides=("sim.n_taps=20", "sim.n_steps=14000", "sim.n_train=8000",
                       "sim.r_true=12", "sim.phi_lo=0.998", "sim.phi_hi=0.998",
                       "sim.omega_q=0", "sim.power_decay=0.85", "tracker.rank=12",
                       "tracker.beta=0.9995", "tracker.fb_smoothing=false"),
            algos=("dfb_asrmae",),
            n_seeds=1,
            ranks=(4, 12, 20)),
        # The only p >= 2 workload.  Smoothing is off because the p >= 2
        # backward pass overflows (ROADMAP item 3).
        Workload(
            name="high_order",
            entry="run_experiment",
            overrides=("sim.preset=rough", "sim.n_taps=32", "sim.n_steps=3000",
                       "sim.n_train=1000", "sim.r_true=8", "tracker.rank=8",
                       "tracker.order=3", "tracker.fb_smoothing=false",
                       "run.emit_errors=false"),
            algos=("asrmae", "dfb_asrmae"),
            n_seeds=2),
    )
}
