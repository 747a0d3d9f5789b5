//! The application the workloads run, its seeded input, and the check
//! every run's output must pass.

use ptdg_lulesh::sequential::sequential_step;
use ptdg_lulesh::{LuleshConfig, LuleshState, LuleshTask, Mesh, RankGrid};
use std::sync::Mutex;
use std::time::Instant;

/// SplitMix64 finalizer: spreads consecutive seeds over all of `u64`.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Scale the Sedov energy deposit of a fresh LULESH state by a factor in
/// `[1, 1.25)` drawn from `seed`, keeping pressure, sound speed and the
/// first courant slot consistent with it. The input changes with the
/// seed; the amount of work per iteration does not.
fn perturb(st: &LuleshState, seed: u64) {
    let f = 1.0 + 0.25 * (splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64;
    st.e.set(0, st.e.get(0) * f);
    st.p.set(0, st.p.get(0) * f);
    st.ss.set(0, st.ss.get(0) * f.sqrt());
    // Same slot layout as `LuleshState::new` uses to prime the scratch.
    let ne = st.mesh.n_elems();
    let per = ne.div_ceil(st.scratch.len());
    st.k_courant(0..per.min(ne), 0);
}

/// LULESH at one per-rank size — `s³` elements, `tpl` tasks per loop —
/// with the run's seed.
pub struct LuleshApp {
    pub s: usize,
    pub tpl: usize,
    pub seed: u64,
    /// (iterations, digest) of the sequential references already run.
    reference: Mutex<Vec<(u64, u64)>>,
}

impl LuleshApp {
    pub fn new(s: usize, tpl: usize, seed: u64) -> LuleshApp {
        LuleshApp {
            s,
            tpl,
            seed,
            reference: Mutex::new(Vec::new()),
        }
    }

    /// The single-rank program on real, seeded data: bodies run the
    /// kernels.
    pub fn real(&self) -> LuleshTask {
        let p = LuleshTask::with_state(LuleshConfig::single(self.s, 1, self.tpl));
        perturb(p.state.as_ref().expect("with_state has a state"), self.seed);
        p
    }

    /// The cost-model program: `n_ranks` ranks (a perfect cube) of this
    /// size, `iterations` iterations, no bodies and no data.
    pub fn sim_program(&self, n_ranks: usize, iterations: u64) -> LuleshTask {
        LuleshTask::new(LuleshConfig {
            grid: RankGrid::cube(n_ranks),
            ..LuleshConfig::single(self.s, iterations, self.tpl)
        })
    }

    /// The single-rank task stream of [`LuleshApp::real`] without bodies.
    pub fn bare(&self) -> LuleshTask {
        self.sim_program(1, 1)
    }

    /// Fresh seeded state for the sequential reference, and its TPL.
    fn reference_state(&self) -> (LuleshState, usize) {
        let tpl = self.tpl.min(self.s.pow(3));
        let st = LuleshState::new(Mesh::new(self.s), tpl);
        perturb(&st, self.seed);
        (st, tpl)
    }

    /// Check a real program's output after `iterations` iterations: every
    /// field is finite, and the state digest equals the sequential
    /// reference's after as many steps.
    pub fn verify(&self, prog: &LuleshTask, iterations: u64) -> Result<(), String> {
        let st = prog.state.as_ref().ok_or("the program has no state")?;
        if !st.all_finite() {
            return Err("LULESH state is not finite".into());
        }
        let mut cache = self.reference.lock().expect("reference cache poisoned");
        let want = match cache.iter().find(|(n, _)| *n == iterations) {
            Some(&(_, d)) => d,
            None => {
                let (rs, tpl) = self.reference_state();
                for _ in 0..iterations {
                    sequential_step(&rs, tpl);
                }
                cache.push((iterations, rs.digest()));
                rs.digest()
            }
        };
        if st.digest() != want {
            return Err(format!(
                "LULESH digest {:016x} != sequential reference {want:016x} after {iterations} iterations",
                st.digest()
            ));
        }
        Ok(())
    }

    /// Median wall time of one step of the single-threaded sequential
    /// reference over `iters` steps, ms: the kernels alone, no runtime.
    pub fn kernel_ms_per_iter(&self, iters: usize) -> f64 {
        let (st, tpl) = self.reference_state();
        let samples: Vec<f64> = (0..iters)
            .map(|_| {
                let t0 = Instant::now();
                sequential_step(&st, tpl);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        crate::stats::median(&samples).unwrap_or(0.0)
    }
}
