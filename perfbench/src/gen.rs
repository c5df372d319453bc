//! Seeded input generators: universes, membership-aware churn schedules
//! and skewed query-key streams. Everything the program under test sees
//! is produced here from the run's seeds.

use bcc_metric::{BandwidthMatrix, NodeId};

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Access-link capacity tiers: every host draws a tier from
/// {100, 80, 30, 10} Mbps and a pair's bandwidth is the smaller of its two
/// endpoints' tiers. The same model (and draw order) as the churn bench.
pub fn tier_universe(n: usize, seed: u64) -> BandwidthMatrix {
    let mut rng = Rng::new(seed);
    let caps: Vec<f64> = (0..n)
        .map(|_| match rng.next_u64() % 4 {
            0 => 100.0,
            1 => 80.0,
            2 => 30.0,
            _ => 10.0,
        })
        .collect();
    BandwidthMatrix::from_fn(n, |i, j| caps[i].min(caps[j]))
}

/// The shard bench's hierarchical block universe: four equal groups of
/// contiguous ids, 100 Mbps inside a group, 15 Mbps between the two groups
/// of a super-group, 5 Mbps across super-groups. An exact tree metric, so
/// contiguous shard plans align with anchor subtrees.
pub fn block_universe(n: usize) -> BandwidthMatrix {
    let group = n / 4;
    BandwidthMatrix::from_fn(n, |i, j| {
        if i == j || i / group == j / group {
            100.0
        } else if i / (2 * group) == j / (2 * group) {
            15.0
        } else {
            5.0
        }
    })
}

/// Zipf-like popularity over ranks `0..n`: rank `r` has weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A host that left joins again.
    Join,
    /// An active host leaves gracefully.
    Leave,
    /// An active host crashes.
    Crash,
    /// A crashed host recovers.
    Recover,
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnStep {
    /// What happens.
    pub kind: OpKind,
    /// To whom.
    pub host: NodeId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Active,
    Left,
    Crashed,
}

/// The membership the generator expects the system to have, so generated
/// ops and query start hosts are always valid when they are applied.
#[derive(Debug, Clone)]
pub struct Membership {
    state: Vec<State>,
    active: usize,
}

impl Membership {
    /// Every host of an `n`-host universe active.
    pub fn full(n: usize) -> Self {
        Membership {
            state: vec![State::Active; n],
            active: n,
        }
    }

    /// Whether `host` is active.
    pub fn is_active(&self, host: usize) -> bool {
        self.state[host] == State::Active
    }

    /// Active hosts.
    pub fn active_count(&self) -> usize {
        self.active
    }

    fn pick(&self, rng: &mut Rng, want: impl Fn(State) -> bool) -> Option<usize> {
        let pool: Vec<usize> = (0..self.state.len())
            .filter(|&h| want(self.state[h]))
            .collect();
        (!pool.is_empty()).then(|| pool[rng.below(pool.len())])
    }

    /// Draws the next churn op and applies it to the expected membership.
    /// The schedule is stationary: at most `max_out` hosts are away at
    /// once, so the system never drifts far from full membership and every
    /// op is a fresh draw from the same perturbation. With nobody away a
    /// host departs (leave or crash, even odds); with `max_out` away one
    /// returns (join after a leave, recover after a crash); otherwise
    /// either happens with even odds.
    pub fn next_churn(&mut self, rng: &mut Rng, max_out: usize) -> ChurnStep {
        let away = self.state.len() - self.active;
        let depart = away == 0 || (away < max_out && rng.below(2) == 0);
        let (kind, host) = if depart {
            let h = self
                .pick(rng, |s| s == State::Active)
                .expect("an active host");
            let kind = if rng.below(2) == 0 {
                OpKind::Leave
            } else {
                OpKind::Crash
            };
            (kind, h)
        } else {
            let h = self.pick(rng, |s| s != State::Active).expect("a host away");
            let kind = if self.state[h] == State::Left {
                OpKind::Join
            } else {
                OpKind::Recover
            };
            (kind, h)
        };
        match kind {
            OpKind::Join | OpKind::Recover => {
                self.state[host] = State::Active;
                self.active += 1;
            }
            OpKind::Leave => {
                self.state[host] = State::Left;
                self.active -= 1;
            }
            OpKind::Crash => {
                self.state[host] = State::Crashed;
                self.active -= 1;
            }
        }
        ChurnStep {
            kind,
            host: NodeId::new(host),
        }
    }
}

/// A query key: start host, requested size and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    /// Start host.
    pub host: NodeId,
    /// Cluster size.
    pub k: usize,
    /// Requested bandwidth (a class value, so it snaps to itself).
    pub bandwidth: f64,
}

/// Skewed, drifting key popularity. Every draw picks a size and a
/// bandwidth uniformly, so the mix of query shapes is the same for every
/// seed, then a start host by a Zipf law over a host order of its own per
/// shape: a few keys of each shape repeat often (cache hits) and a long
/// tail is seen once. Every `period` draws the orders are reshuffled, so
/// which hosts are hot drifts over a run instead of being fixed by the
/// seed.
#[derive(Debug, Clone)]
pub struct KeySpace {
    hosts: Vec<usize>,
    ks: Vec<usize>,
    bands: Vec<f64>,
    /// One host order per `(k, band)` shape, most popular first.
    orders: Vec<Vec<usize>>,
    zipf: Zipf,
    period: u64,
    drawn: u64,
}

impl KeySpace {
    /// Keys over hosts `hosts`, sizes `ks` and bandwidths `bands`, with
    /// Zipf exponent `s`, re-ranked every `period` draws.
    pub fn new(
        hosts: &[usize],
        ks: &[usize],
        bands: &[f64],
        s: f64,
        period: u64,
        rng: &mut Rng,
    ) -> Self {
        let mut space = KeySpace {
            hosts: hosts.to_vec(),
            ks: ks.to_vec(),
            bands: bands.to_vec(),
            orders: Vec::new(),
            zipf: Zipf::new(hosts.len(), s),
            period: period.max(1),
            drawn: 0,
        };
        space.rerank(rng);
        space
    }

    fn rerank(&mut self, rng: &mut Rng) {
        self.orders = (0..self.ks.len() * self.bands.len())
            .map(|_| {
                let mut order = self.hosts.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                order
            })
            .collect();
    }

    /// A key whose host is active (redrawn past inactive hosts).
    pub fn draw(&mut self, rng: &mut Rng, members: &Membership) -> Key {
        if self.drawn > 0 && self.drawn.is_multiple_of(self.period) {
            self.rerank(rng);
        }
        self.drawn += 1;
        let k = rng.below(self.ks.len());
        let b = rng.below(self.bands.len());
        let order = &self.orders[k * self.bands.len() + b];
        loop {
            let host = order[self.zipf.sample(rng)];
            if members.is_active(host) {
                return Key {
                    host: NodeId::new(host),
                    k: self.ks[k],
                    bandwidth: self.bands[b],
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(
            xs,
            (0..8).map(|_| Rng::new(8).next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn churn_stays_near_full_membership_and_only_touches_valid_hosts() {
        let mut m = Membership::full(16);
        let mut rng = Rng::new(3);
        for _ in 0..500 {
            let before = m.clone();
            let step = m.next_churn(&mut rng, 4);
            let h = step.host.index();
            match step.kind {
                OpKind::Join => assert_eq!(before.state[h], State::Left),
                OpKind::Recover => assert_eq!(before.state[h], State::Crashed),
                OpKind::Leave | OpKind::Crash => assert!(before.is_active(h)),
            }
            assert!(
                m.active_count() >= 12,
                "at most 4 away: {}",
                m.active_count()
            );
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
    }
}
