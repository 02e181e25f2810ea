//! Seeded input generation: the request stream and the value bytes.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with one seed replay byte-identical inputs.

/// SplitMix64: small, fast and good enough for workload draws.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf draws over a power-of-two key population. Rank `r` maps to key
/// `(r * mul) ^ xor` modulo the population, a bijection chosen from the
/// seed, so each seed makes different keys hot.
pub struct Zipf {
    cdf: Vec<f64>,
    mask: u64,
    mul: u64,
    xor: u64,
}

impl Zipf {
    pub fn new(keys: u64, s: f64, seed: u64) -> Zipf {
        assert!(
            keys.is_power_of_two(),
            "key population must be a power of two"
        );
        let mut cdf = Vec::with_capacity(keys as usize);
        let mut acc = 0.0;
        for i in 1..=keys {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut r = Rng::new(seed ^ 0x21ff);
        Zipf {
            cdf,
            mask: keys - 1,
            mul: r.next_u64() | 1,
            xor: r.next_u64(),
        }
    }

    pub fn key(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64;
        (rank.wrapping_mul(self.mul) ^ self.xor) & self.mask
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Delete,
}

/// One generated request. Values are not stored: a put's bytes are
/// [`value`]`(seed, key, index)`, where `index` is its stream position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
}

/// `n` requests: zipf(`s`) keys over `keys`, `get_pct`% gets,
/// `put_pct`% puts, the rest deletes.
pub fn stream(seed: u64, n: usize, keys: u64, s: f64, get_pct: u32, put_pct: u32) -> Vec<Op> {
    let zipf = Zipf::new(keys, s, seed);
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let roll = (rng.next_u64() % 100) as u32;
            let kind = if roll < get_pct {
                Kind::Get
            } else if roll < get_pct + put_pct {
                Kind::Put
            } else {
                Kind::Delete
            };
            Op {
                kind,
                key: zipf.key(&mut rng) as u32,
            }
        })
        .collect()
}

/// Stream index that tags preloaded values.
pub const PRELOAD: u32 = u32::MAX;

/// Fills `out` with the value bytes of the write of `key` at stream
/// position `index` (or [`PRELOAD`]).
pub fn value(seed: u64, key: u32, index: u32, out: &mut [u8]) {
    let mut r = Rng::new(seed ^ (u64::from(key) << 32 | u64::from(index)));
    for chunk in out.chunks_mut(8) {
        let w = r.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}
