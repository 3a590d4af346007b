//! Seeded request schedules. Everything the program under test sees is
//! generated here from `--seed`: arrival times, read/write choice and
//! items. The generator thread only replays a schedule.

use crate::workload::{Load, Mix, Spec};

/// SplitMix64: small, seedable, and good enough for arrival gaps and
/// item picks. Not the vendored `rand` stand-in, so a change there
/// cannot silently change the benchmark's inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// One request as the wire will carry it. Items are global ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Write1(u32),
    Write2(u32, u32),
    Read(u32),
}

impl Op {
    pub fn write_items(self) -> impl Iterator<Item = u32> {
        let (a, b) = match self {
            Op::Write1(a) => (Some(a), None),
            Op::Write2(a, b) => (Some(a), Some(b)),
            Op::Read(_) => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// A request and the instant (ns after the generator's start) it is
/// due. Closed-loop requests are due when a slot frees, so their
/// `due_ns` is zero here and stamped at issue time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub op: Op,
}

/// Poisson arrival instants at `rate` per second over `[0, total_ns)`.
pub fn poisson_times(rng: &mut Rng, rate: f64, total_ns: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * total_ns as f64 / 1e9 * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - unit() is in (0, 1], so the log is finite.
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= total_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Log-uniform rank in `0..n-1` (Zipf with s ≈ 1): `⌊n^u⌋ − 1`.
pub fn zipf_rank(u: f64, n: u32) -> u32 {
    ((n as f64).powf(u).floor() as u32).clamp(1, n - 1) - 1
}

/// The `i`-th single-item write goes to shard `i mod 2`, slot
/// `(offset + ⌊i/2⌋) mod items_per_shard`: both shards loaded evenly
/// at every instant, items distinct within any latency window.
pub fn walk_item(i: u64, offset: u32, items_per_shard: u32) -> u32 {
    let shard = (i % 2) as u32;
    let slot = ((offset as u64 + i / 2) % items_per_shard as u64) as u32;
    shard * items_per_shard + slot
}

/// The request stream of one workload: a pre-timed list for open loops,
/// an endless indexed sequence for closed loops.
pub struct Schedule {
    /// Open loop: every arrival of warm-up + measured window, by time.
    pub timed: Vec<Arrival>,
    offset: u32,
    items_per_shard: u32,
}

impl Schedule {
    pub fn generate(spec: &Spec, seed: u64, total_ns: u64) -> Schedule {
        let mut rng = Rng::new(seed);
        let items = spec.items_per_shard;
        // A multiple of six: coordinators rotate over three sites and
        // copies are placed by slot mod three, so the walk's phase
        // against that rotation decides whether a coordinator holds a
        // copy of what it coordinates. With two copies (`coord-kill`)
        // that is one hop and 1.5 ms of median; it must not vary by seed.
        let offset = rng.below(items / 6) * 6;
        let mut timed = Vec::new();
        if let Load::Open { rate } = spec.load {
            let times = poisson_times(&mut rng, rate, total_ns);
            let mut writes = 0u64;
            timed.reserve(times.len());
            for due_ns in times {
                let op = match spec.mix {
                    Mix::Writes => Op::Write1(walk_item(writes, offset, items)),
                    Mix::MostlyReads { read_share } => {
                        if rng.unit() < read_share {
                            Op::Read(rng.below(2 * items))
                        } else {
                            Op::Write1(walk_item(writes, offset, items))
                        }
                    }
                    Mix::CrossShardHot => {
                        let k = zipf_rank(rng.unit(), items);
                        Op::Write2(k, items + k)
                    }
                };
                if !matches!(op, Op::Read(_)) {
                    writes += 1;
                }
                timed.push(Arrival { due_ns, op });
            }
        }
        Schedule {
            timed,
            offset,
            items_per_shard: items,
        }
    }

    /// The `i`-th closed-loop request.
    pub fn closed_op(&self, i: u64) -> Op {
        Op::Write1(walk_item(i, self.offset, self.items_per_shard))
    }

    /// FNV-1a over the generated requests (the timed list, or the first
    /// 65 536 closed-loop ops): two runs with one seed must print the
    /// same hash.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        if self.timed.is_empty() {
            for i in 0..65_536 {
                h.op(self.closed_op(i));
            }
        }
        for a in &self.timed {
            h.u64(a.due_ns);
            h.op(a.op);
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn op(&mut self, op: Op) {
        let (tag, a, b) = match op {
            Op::Write1(a) => (1, a, 0),
            Op::Write2(a, b) => (2, a, b),
            Op::Read(a) => (3, a, 0),
        };
        self.u64(tag << 32 | a as u64);
        self.u64(b as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    const TEN_S: u64 = 10_000_000_000;

    #[test]
    fn one_seed_one_schedule_two_seeds_two() {
        for spec in workload::all() {
            let a = Schedule::generate(&spec, 11, TEN_S);
            let b = Schedule::generate(&spec, 11, TEN_S);
            let c = Schedule::generate(&spec, 12, TEN_S);
            assert_eq!(a.timed, b.timed, "{}", spec.name);
            assert_eq!(a.hash(), b.hash(), "{}", spec.name);
            assert_ne!(a.hash(), c.hash(), "{}", spec.name);
        }
    }

    #[test]
    fn poisson_rate_and_gap_shape() {
        let mut rng = Rng::new(7);
        let t = poisson_times(&mut rng, 4000.0, TEN_S);
        let n = t.len() as f64;
        assert!((n - 40_000.0).abs() < 4.0 * 200.0, "count {n}");
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        // Exponential gaps: the share below the mean is 1 - 1/e.
        let mean_gap = 1e9 / 4000.0;
        let below = t
            .windows(2)
            .filter(|w| ((w[1] - w[0]) as f64) < mean_gap)
            .count() as f64;
        assert!((below / n - 0.632).abs() < 0.01, "share {}", below / n);
    }

    #[test]
    fn zipf_is_log_uniform_over_the_ranks() {
        assert_eq!(zipf_rank(0.0, 256), 0);
        assert_eq!(zipf_rank(0.999_999, 256), 254);
        let mut rng = Rng::new(3);
        let mut hits = [0u32; 256];
        for _ in 0..100_000 {
            hits[zipf_rank(rng.unit(), 256) as usize] += 1;
        }
        // Rank 0 covers 256^u in [1, 2): log_256(2) = 1/8 of the mass.
        assert!((hits[0] as f64 / 1e5 - 0.125).abs() < 0.01, "{}", hits[0]);
        assert!(hits[0] > 20 * hits[100]);
        assert_eq!(hits[255], 0);
    }

    #[test]
    fn walk_alternates_shards_and_wraps() {
        assert_eq!(walk_item(0, 5, 8), 5);
        assert_eq!(walk_item(1, 5, 8), 8 + 5);
        assert_eq!(walk_item(2, 5, 8), 6);
        assert_eq!(walk_item(6, 5, 8), 0);
        let seen: std::collections::BTreeSet<u32> = (0..16).map(|i| walk_item(i, 5, 8)).collect();
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn read_mix_is_four_fifths_reads() {
        let spec = workload::by_name("read-mix").unwrap();
        let s = Schedule::generate(&spec, 11, TEN_S);
        let reads = s
            .timed
            .iter()
            .filter(|a| matches!(a.op, Op::Read(_)))
            .count() as f64;
        assert!((reads / s.timed.len() as f64 - 0.8).abs() < 0.01);
    }
}
