//! Seeded input generation: the only source of randomness in a run.
//!
//! Every input the program under test receives — task ids, the open-loop
//! arrival schedule, the simulator's seed — is derived here from the
//! `--seed` argument, so one seed always yields one set of inputs.

/// SplitMix64: a tiny, well-mixed 64-bit generator (Steele et al., 2014).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 output function: a bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First task id of a run. Ids are `base, base+1, …`: distinct and
/// seeded, and every seed's ids fall in the same band, `[2^28, 2^29)`.
pub fn id_base(seed: u64) -> u64 {
    (1 << 28) + (mix(seed ^ 0x05EE_D1D5) >> 37)
}

/// The simulator seed for a workload seed.
pub fn sim_seed(seed: u64) -> u64 {
    mix(seed ^ 0x0051_3EED)
}

/// Intended send times (µs from the start of the open-loop phase) of a
/// Poisson arrival process at `rate_per_s`, covering `[0, duration_us)`.
/// Inter-arrival gaps are exponential, drawn by inversion.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_us: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(mix(seed ^ 0x0A11_1FA1));
    let mean_gap_us = 1e6 / rate_per_s;
    let mut out = Vec::with_capacity((duration_us as f64 / mean_gap_us * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_us;
        if t >= duration_us as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(
            poisson_schedule(7, 2_000.0, 1_000_000),
            poisson_schedule(7, 2_000.0, 1_000_000)
        );
    }

    #[test]
    fn other_seed_other_schedule() {
        assert_ne!(
            poisson_schedule(7, 2_000.0, 1_000_000),
            poisson_schedule(8, 2_000.0, 1_000_000)
        );
        assert_ne!(id_base(7), id_base(8));
        assert_ne!(sim_seed(7), sim_seed(8));
    }

    #[test]
    fn schedule_is_sorted_and_near_the_offered_rate() {
        let s = poisson_schedule(3, 2_000.0, 10_000_000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().expect("non-empty") < 10_000_000);
        // 20,000 expected arrivals; a Poisson count's sd is ~141.
        assert!((19_000..21_000).contains(&s.len()), "{}", s.len());
    }

    #[test]
    fn ids_stay_in_one_band() {
        for seed in 0..1_000 {
            let base = id_base(seed);
            // Room for 100M tasks per run before leaving the band.
            assert!(base >= 1 << 28 && base + 100_000_000 < 1 << 29);
        }
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
